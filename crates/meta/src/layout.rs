//! Striped file layouts.
//!
//! A file's bytes are distributed round-robin in `chunk_size` units over
//! `stripe_width` storage nodes, generalizing the seed's single-node
//! placement (a width-1 stripe). The layout is pure metadata: it maps a
//! logical byte extent to the per-node extents the client must write,
//! which the control plane then turns into concrete addresses.

/// How a file wants to be striped (requested at create time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayoutSpec {
    /// Number of storage nodes the file stripes over (≥ 1).
    pub(crate) stripe_width: u32,
    /// Bytes per stripe unit.
    pub(crate) chunk_size: u32,
}

impl LayoutSpec {
    /// The seed's behavior: whole file on one node.
    pub const SINGLE: LayoutSpec = LayoutSpec {
        stripe_width: 1,
        chunk_size: u32::MAX,
    };

    pub fn striped(stripe_width: u32, chunk_size: u32) -> LayoutSpec {
        assert!(stripe_width >= 1 && chunk_size >= 1);
        LayoutSpec {
            stripe_width,
            chunk_size,
        }
    }
}

impl Default for LayoutSpec {
    fn default() -> LayoutSpec {
        LayoutSpec::SINGLE
    }
}

/// A concrete layout: the spec bound to an ordered set of storage nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StripedLayout {
    pub(crate) chunk_size: u32,
    /// Storage node ids in stripe order; `len()` is the stripe width.
    pub nodes: Vec<u32>,
}

/// One contiguous piece of a logical extent, landing on a single node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeExtent {
    /// Storage node this piece goes to.
    pub node: u32,
    /// Index of the stripe unit within the file (offset / chunk_size).
    pub stripe_index: u64,
    /// Logical byte offset of this piece within the file.
    pub file_offset: u64,
    /// Length of this piece in bytes.
    pub len: u32,
}

impl StripedLayout {
    /// Width-1 layout: everything on `node` (the seed's placement).
    pub fn single(node: u32) -> StripedLayout {
        StripedLayout {
            chunk_size: u32::MAX,
            nodes: vec![node],
        }
    }

    pub fn new(spec: LayoutSpec, nodes: Vec<u32>) -> StripedLayout {
        assert_eq!(
            nodes.len(),
            spec.stripe_width as usize,
            "layout needs exactly stripe_width nodes"
        );
        StripedLayout {
            chunk_size: spec.chunk_size,
            nodes,
        }
    }

    pub fn stripe_width(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Node holding the stripe unit at `stripe_index`.
    pub(crate) fn node_of(&self, stripe_index: u64) -> u32 {
        self.nodes[(stripe_index % self.nodes.len() as u64) as usize]
    }

    /// Split the logical extent `[offset, offset + len)` into per-node
    /// pieces, in file order. Width-1 layouts return a single extent.
    pub fn extents(&self, offset: u64, len: u32) -> Vec<StripeExtent> {
        if len == 0 {
            return vec![StripeExtent {
                node: self.node_of(0),
                stripe_index: 0,
                file_offset: offset,
                len: 0,
            }];
        }
        let chunk = self.chunk_size as u64;
        let mut out = Vec::new();
        let mut cur = offset;
        let end = offset + len as u64;
        while cur < end {
            let stripe_index = cur / chunk;
            let within = cur % chunk;
            let take = (chunk - within).min(end - cur) as u32;
            out.push(StripeExtent {
                node: self.node_of(stripe_index),
                stripe_index,
                file_offset: cur,
                len: take,
            });
            cur += take as u64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_layout_is_one_extent() {
        let l = StripedLayout::single(9);
        let e = l.extents(0, 1 << 20);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].node, 9);
        assert_eq!(e[0].len, 1 << 20);
    }

    #[test]
    fn striping_round_robins_chunks() {
        let l = StripedLayout::new(LayoutSpec::striped(3, 1000), vec![4, 5, 6]);
        let e = l.extents(0, 3500);
        assert_eq!(
            e.iter().map(|x| (x.node, x.len)).collect::<Vec<_>>(),
            vec![(4, 1000), (5, 1000), (6, 1000), (4, 500)]
        );
        assert_eq!(e[3].stripe_index, 3);
    }

    #[test]
    fn unaligned_offset_splits_at_chunk_boundary() {
        let l = StripedLayout::new(LayoutSpec::striped(2, 4096), vec![7, 8]);
        let e = l.extents(4000, 5000);
        // 96 bytes finish chunk 0 (node 7), 4096 fill chunk 1 (node 8),
        // 808 start chunk 2 (node 7 again).
        assert_eq!(
            e.iter().map(|x| (x.node, x.len)).collect::<Vec<_>>(),
            vec![(7, 96), (8, 4096), (7, 808)]
        );
        assert_eq!(e[0].file_offset, 4000);
        assert_eq!(e[2].file_offset, 4000 + 96 + 4096);
    }

    #[test]
    fn zero_length_extent_well_defined() {
        let l = StripedLayout::new(LayoutSpec::striped(2, 64), vec![1, 2]);
        let e = l.extents(128, 0);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].len, 0);
    }
}
