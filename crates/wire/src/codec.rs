//! Byte-level codecs for the DFS headers.
//!
//! The simulator mostly moves typed frames around, but the headers are also
//! fully serializable: the encoded lengths are the authoritative wire sizes
//! (asserted in tests against [`crate::sizes`]), and encode/decode
//! roundtrips pin the layout.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::capability::{Capability, Rights};
use crate::headers::{
    BcastStrategy, DfsHeader, DfsOp, EcInfo, EcRole, ReadReqHeader, ReplicaCoord, Resiliency,
    RsScheme, WriteReqHeader,
};

/// Decoding failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    Truncated,
    BadTag(u8),
}

type Result<T> = std::result::Result<T, CodecError>;

fn need(buf: &impl Buf, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

pub(crate) fn encode_capability(c: &Capability, out: &mut BytesMut) {
    out.put_u32_le(c.client);
    out.put_u64_le(c.file);
    out.put_u8(c.rights.0);
    out.put_u64_le(c.expires_at_ns);
    out.put_u64_le(c.nonce);
    out.put_u64_le(c.mac);
}

pub(crate) fn decode_capability(buf: &mut Bytes) -> Result<Capability> {
    need(buf, 37)?;
    Ok(Capability {
        client: buf.get_u32_le(),
        file: buf.get_u64_le(),
        rights: Rights(buf.get_u8()),
        expires_at_ns: buf.get_u64_le(),
        nonce: buf.get_u64_le(),
        mac: buf.get_u64_le(),
    })
}

pub fn encode_dfs_header(h: &DfsHeader, out: &mut BytesMut) {
    out.put_u64_le(h.greq_id);
    out.put_u8(match h.op {
        DfsOp::Write => 0,
        DfsOp::Read => 1,
    });
    // The tenant id rides the upper half of the client word: node ids fit
    // 16 bits, so the packing keeps the header at its Fig-3 wire size.
    out.put_u32_le((h.tenant as u32) << 16 | (h.client & 0xFFFF));
    encode_capability(&h.capability, out);
}

pub fn decode_dfs_header(buf: &mut Bytes) -> Result<DfsHeader> {
    need(buf, 13)?;
    let greq_id = buf.get_u64_le();
    let op = match buf.get_u8() {
        0 => DfsOp::Write,
        1 => DfsOp::Read,
        t => return Err(CodecError::BadTag(t)),
    };
    let word = buf.get_u32_le();
    let capability = decode_capability(buf)?;
    Ok(DfsHeader {
        greq_id,
        op,
        client: word & 0xFFFF,
        tenant: (word >> 16) as u16,
        capability,
    })
}

fn encode_coord(c: &ReplicaCoord, out: &mut BytesMut) {
    out.put_u32_le(c.node);
    out.put_u64_le(c.addr);
}

fn decode_coord(buf: &mut Bytes) -> Result<ReplicaCoord> {
    need(buf, 12)?;
    Ok(ReplicaCoord {
        node: buf.get_u32_le(),
        addr: buf.get_u64_le(),
    })
}

pub fn encode_wrh(h: &WriteReqHeader, out: &mut BytesMut) {
    out.put_u64_le(h.target_addr);
    out.put_u32_le(h.len);
    match &h.resiliency {
        Resiliency::None => out.put_u8(0),
        Resiliency::Replicate {
            strategy,
            vrank,
            coords,
        } => {
            out.put_u8(1);
            out.put_u8(match strategy {
                BcastStrategy::Ring => 0,
                BcastStrategy::Pbt => 1,
            });
            out.put_u8(*vrank);
            out.put_u8(coords.len() as u8);
            for c in coords {
                encode_coord(c, out);
            }
        }
        Resiliency::ErasureCode(info) => {
            out.put_u8(2);
            out.put_u8(info.scheme.k);
            out.put_u8(info.scheme.m);
            match info.role {
                EcRole::Data { chunk_idx } => {
                    out.put_u8(0);
                    out.put_u8(chunk_idx);
                    out.put_slice(&[0u8; 9]);
                }
                EcRole::Parity {
                    parity_idx,
                    src_chunk,
                } => {
                    out.put_u8(1);
                    out.put_u8(parity_idx);
                    out.put_u8(src_chunk);
                    out.put_slice(&[0u8; 8]);
                }
            }
            out.put_u64_le(info.stripe);
            out.put_u8(info.parity_coords.len() as u8);
            for c in &info.parity_coords {
                encode_coord(c, out);
            }
        }
    }
}

pub fn decode_wrh(buf: &mut Bytes) -> Result<WriteReqHeader> {
    need(buf, 13)?;
    let target_addr = buf.get_u64_le();
    let len = buf.get_u32_le();
    let resiliency = match buf.get_u8() {
        0 => Resiliency::None,
        1 => {
            need(buf, 3)?;
            let strategy = match buf.get_u8() {
                0 => BcastStrategy::Ring,
                1 => BcastStrategy::Pbt,
                t => return Err(CodecError::BadTag(t)),
            };
            let vrank = buf.get_u8();
            let n = buf.get_u8() as usize;
            let mut coords = Vec::with_capacity(n);
            for _ in 0..n {
                coords.push(decode_coord(buf)?);
            }
            Resiliency::Replicate {
                strategy,
                vrank,
                coords,
            }
        }
        2 => {
            need(buf, 21)?;
            let k = buf.get_u8();
            let m = buf.get_u8();
            let role = match buf.get_u8() {
                0 => {
                    let chunk_idx = buf.get_u8();
                    buf.advance(9);
                    EcRole::Data { chunk_idx }
                }
                1 => {
                    let parity_idx = buf.get_u8();
                    let src_chunk = buf.get_u8();
                    buf.advance(8);
                    EcRole::Parity {
                        parity_idx,
                        src_chunk,
                    }
                }
                t => return Err(CodecError::BadTag(t)),
            };
            let stripe = buf.get_u64_le();
            let n = buf.get_u8() as usize;
            let mut parity_coords = Vec::with_capacity(n);
            for _ in 0..n {
                parity_coords.push(decode_coord(buf)?);
            }
            Resiliency::ErasureCode(EcInfo {
                scheme: RsScheme::new(k, m),
                role,
                stripe,
                parity_coords,
            })
        }
        t => return Err(CodecError::BadTag(t)),
    };
    Ok(WriteReqHeader {
        target_addr,
        len,
        resiliency,
    })
}

pub fn encode_rrh(h: &ReadReqHeader, out: &mut BytesMut) {
    out.put_u64_le(h.addr);
    out.put_u32_le(h.len);
}

pub fn decode_rrh(buf: &mut Bytes) -> Result<ReadReqHeader> {
    need(buf, 12)?;
    Ok(ReadReqHeader {
        addr: buf.get_u64_le(),
        len: buf.get_u32_le(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::siphash::MacKey;
    use crate::sizes;

    fn cap() -> Capability {
        Capability::issue(&MacKey::from_seed(1), 9, 77, Rights::RW, 123_456, 5)
    }

    #[test]
    fn capability_roundtrip_and_size() {
        let c = cap();
        let mut b = BytesMut::new();
        encode_capability(&c, &mut b);
        assert_eq!(b.len() as u32, sizes::CAPABILITY);
        let mut r = b.freeze();
        assert_eq!(decode_capability(&mut r).expect("decode"), c);
        assert!(r.is_empty());
    }

    #[test]
    fn dfs_header_roundtrip_and_size() {
        let h = DfsHeader {
            tenant: 0,
            greq_id: 0xAABB,
            op: DfsOp::Read,
            client: 3,
            capability: cap(),
        };
        let mut b = BytesMut::new();
        encode_dfs_header(&h, &mut b);
        assert_eq!(b.len() as u32, sizes::DFS_HEADER);
        let mut r = b.freeze();
        assert_eq!(decode_dfs_header(&mut r).expect("decode"), h);
    }

    #[test]
    fn wrh_roundtrip_all_variants() {
        let variants = vec![
            WriteReqHeader {
                target_addr: 1,
                len: 2,
                resiliency: Resiliency::None,
            },
            WriteReqHeader {
                target_addr: 0xF00,
                len: 4096,
                resiliency: Resiliency::Replicate {
                    strategy: BcastStrategy::Pbt,
                    vrank: 2,
                    coords: vec![
                        ReplicaCoord { node: 1, addr: 16 },
                        ReplicaCoord { node: 2, addr: 32 },
                        ReplicaCoord { node: 3, addr: 64 },
                    ],
                },
            },
            WriteReqHeader {
                target_addr: 8,
                len: 1 << 20,
                resiliency: Resiliency::ErasureCode(EcInfo {
                    scheme: RsScheme::new(6, 3),
                    role: EcRole::Parity {
                        parity_idx: 1,
                        src_chunk: 4,
                    },
                    stripe: 0xDEAD,
                    parity_coords: vec![],
                }),
            },
            WriteReqHeader {
                target_addr: 8,
                len: 12_288,
                resiliency: Resiliency::ErasureCode(EcInfo {
                    scheme: RsScheme::new(3, 2),
                    role: EcRole::Data { chunk_idx: 2 },
                    stripe: 7,
                    parity_coords: vec![
                        ReplicaCoord { node: 4, addr: 0 },
                        ReplicaCoord { node: 5, addr: 0 },
                    ],
                }),
            },
        ];
        for h in variants {
            let mut b = BytesMut::new();
            encode_wrh(&h, &mut b);
            assert_eq!(b.len() as u32, h.wire_size(), "size for {h:?}");
            let mut r = b.freeze();
            assert_eq!(decode_wrh(&mut r).expect("decode"), h);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn rrh_roundtrip_and_size() {
        let h = ReadReqHeader { addr: 77, len: 88 };
        let mut b = BytesMut::new();
        encode_rrh(&h, &mut b);
        assert_eq!(b.len() as u32, sizes::RRH);
        let mut r = b.freeze();
        assert_eq!(decode_rrh(&mut r).expect("decode"), h);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let h = DfsHeader {
            tenant: 0,
            greq_id: 1,
            op: DfsOp::Write,
            client: 1,
            capability: cap(),
        };
        let mut b = BytesMut::new();
        encode_dfs_header(&h, &mut b);
        let full = b.freeze();
        for cut in 0..full.len() {
            let mut part = full.slice(..cut);
            assert_eq!(
                decode_dfs_header(&mut part),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_tags_rejected() {
        let mut b = BytesMut::new();
        b.put_u64_le(0);
        b.put_u32_le(0);
        b.put_u8(9); // bogus resiliency tag
        assert_eq!(decode_wrh(&mut b.freeze()), Err(CodecError::BadTag(9)));
    }
}
