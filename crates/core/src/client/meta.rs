//! Metadata ops: executed against cache + control plane at issue time,
//! completed after their simulated latency (the op's one timer).

use nadfs_meta::{CachedEntry, InodeAttr, MetaError, StripedLayout};
use nadfs_rdma::NicCore;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Ctx, Dur, OpKind, SpanId};

use super::{deliver, ClientApp, MetaOp, MetaResult, Op, Routes, Step};
use crate::config::{CACHE_PROBE, CONTROL_RTT, OPLOG_APPEND};
use crate::control::FilePolicy;

/// A metadata op whose (already-determined) outcome is waiting out its
/// simulated latency: the record to deliver, `end` still to be stamped.
pub(super) struct MetaDone {
    result: MetaResult,
    span: SpanId,
}

impl ClientApp {
    /// Flush buffered write-back attrs (one control round-trip for the
    /// whole batch). Returns true if a flush happened.
    pub(super) fn flush_writeback(&mut self) -> bool {
        let mut dirty = self.meta_cache.borrow_mut().take_dirty();
        if dirty.is_empty() {
            return false;
        }
        let _ = self.control.borrow_mut().flush_attrs(&mut dirty);
        true
    }

    /// Remember a lookup-shaped response in the metadata cache.
    fn cache_entry(&self, path: &str, (attr, layout): (InodeAttr, Option<StripedLayout>)) {
        if self.cache_enabled {
            let entry = CachedEntry::from_attr(&attr, layout);
            self.meta_cache.borrow_mut().insert(path.to_string(), entry);
        }
    }

    /// Execute a metadata op against cache + control plane. State changes
    /// apply immediately; the completion is reported after the op's
    /// simulated latency (cache probe vs. control round-trip).
    pub(super) fn start_meta(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        op: MetaOp,
        token: u64,
    ) {
        let start = ctx.now();
        let span = self.span_begin(OpKind::Meta, nic, start, || format!("meta {:?}", op.kind()));
        let now_ns = start.as_ns() as u64;
        let mut cost = Dur::ZERO;
        let mut cache_hit = false;
        self.control.borrow_mut().clear_route();
        let result: Result<(), MetaError> = match &op {
            MetaOp::Lookup { path } => {
                // A lookup must observe our own buffered appends: flush
                // write-back state first (counts as its own round-trip).
                if self.cache_enabled && self.meta_cache.borrow().dirty_count() > 0 {
                    self.flush_writeback();
                    cost += CONTROL_RTT;
                }
                let cached = if self.cache_enabled {
                    self.meta_cache.borrow_mut().get(path)
                } else {
                    None
                };
                match cached {
                    Some(_) => {
                        cache_hit = true;
                        cost += CACHE_PROBE;
                        Ok(())
                    }
                    None if self.cache_enabled => {
                        cost += CONTROL_RTT;
                        let found = self.control.borrow_mut().lookup_entry(path);
                        found.map(|entry| self.cache_entry(path, entry))
                    }
                    // Nothing to fill: the same round-trip, no layout cloned.
                    None => {
                        cost += CONTROL_RTT;
                        self.control.borrow_mut().lookup_path(path).map(drop)
                    }
                }
            }
            MetaOp::Mkdir { path } => {
                cost = cost + CONTROL_RTT + OPLOG_APPEND;
                self.control.borrow_mut().mkdir(path, now_ns).map(|_| ())
            }
            MetaOp::Create { path, spec } => {
                cost = cost + CONTROL_RTT + OPLOG_APPEND;
                let created =
                    self.control
                        .borrow_mut()
                        .create_file_at(path, *spec, FilePolicy::Plain);
                created.map(|_| {
                    if !self.cache_enabled {
                        return;
                    }
                    // Write-allocate: the create response already carries
                    // everything a later lookup needs, so fill the cache
                    // without another counted round-trip.
                    if let Ok(entry) = self.control.borrow().peek_entry(path) {
                        self.cache_entry(path, entry);
                    }
                })
            }
            MetaOp::Readdir { path } => {
                cost += CONTROL_RTT;
                let listed = self.control.borrow_mut().readdir(path);
                listed.map(|entries| {
                    if self.cache_enabled {
                        // Version check (defense in depth): a readdir
                        // response reveals current child versions —
                        // evict any cached child it proves stale.
                        let mut cache = self.meta_cache.borrow_mut();
                        let base = path.trim_end_matches('/');
                        for (name, attr) in &entries {
                            cache.note_version(&format!("{base}/{name}"), attr.version);
                        }
                    }
                })
            }
            MetaOp::Rename { from, to } => {
                cost = cost + CONTROL_RTT + OPLOG_APPEND;
                self.control.borrow_mut().rename(from, to, now_ns)
            }
            MetaOp::Unlink { path } => {
                cost = cost + CONTROL_RTT + OPLOG_APPEND;
                self.control.borrow_mut().unlink(path, now_ns).map(|_| ())
            }
        };
        // Async metadata updates (AsyncFS-style): a mutation acks after
        // its shard's op-log append — `mutate_service` is shard occupancy
        // paid through the admission model, not ack latency. Every routed
        // op (mutation or resolve miss) queues behind its shard; a cache
        // hit routed nothing (unless its write-back flush did), so
        // `admit_last` is a no-op for it.
        let wait = self.control.borrow_mut().admit_last(start.ps());
        cost += Dur::from_ps(wait);
        if cache_hit {
            self.span_mark(span, phase::CACHE_HIT, start);
        }
        let result = MetaResult {
            token,
            op: op.kind(),
            start,
            end: start,
            cache_hit,
            result,
        };
        let id = self.ops.next_id();
        self.ops.insert(id, Op::Meta(MetaDone { result, span }));
        nic.set_timer(ctx, cost, id);
    }

    /// The latency elapsed: report the outcome decided at issue time.
    pub(super) fn finish_meta(&mut self, ctx: &Ctx<'_>, m: MetaDone) -> Step {
        let MetaDone { mut result, span } = m;
        result.end = ctx.now();
        self.span_end(span, result.end, result.result.is_ok());
        deliver(None, &mut self.results.borrow_mut().metas, result);
        Step::Done(Routes::default())
    }
}
