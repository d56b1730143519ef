//! On-disk formats: file naming, CRC-32, and the manifest / segment /
//! checkpoint codecs.
//!
//! All integers are little-endian, matching the serve wire codec —
//! which also encodes the update bodies themselves (a WAL record's
//! payload is the exact byte string `net-serve` would put on the wire,
//! so there is exactly one update codec in the system).
//!
//! ```text
//! MANIFEST               magic "DYWALMAN" · version u16 · k u32 · streams u32 · crc u32
//! wal-SS-QQQQ….seg       magic "DYWALSEG" · version u16 · stream u32 · start_seq u64
//!                        then records: len u32 · crc u32 · payload
//!                        payload = seq u64 · update body (serve wire codec)
//! ckpt-QQQQ….snap        magic "DYWALCKP" · version u16 · k u32 · streams u32 ·
//!                        seq u64 · body_len u64 · body_crc u32 · body
//!                        body = dynamis_core::Snapshot::encode()
//! ```
//!
//! Record CRCs cover the payload only (`len` corruption is caught by
//! bounds checks, and a wrong-but-in-bounds `len` makes the CRC
//! mismatch anyway). Checkpoint CRCs cover the body.

use crate::error::DurableError;
use dynamis_core::Snapshot;
use dynamis_graph::Update;
use dynamis_serve::wire::{encode_update_body, put_u16, put_u32, put_u64, take_update, Reader};

/// Version written into every manifest, segment, and checkpoint header.
pub const FORMAT_VERSION: u16 = 1;
/// The manifest file name.
pub const MANIFEST_NAME: &str = "MANIFEST";
/// Upper bound on one record's payload; anything larger is corruption
/// (a vertex insertion of 2^24 neighbors is ~64 MiB, far below this).
pub const MAX_RECORD: usize = 1 << 26;
/// Byte offset of the `version` field in a checkpoint file — stable,
/// exposed so format tests can surgically bump it.
pub const CKPT_VERSION_OFFSET: usize = 8;
/// Byte offset of the `k` field in a checkpoint file.
pub const CKPT_K_OFFSET: usize = 10;

const MAN_MAGIC: [u8; 8] = *b"DYWALMAN";
const SEG_MAGIC: [u8; 8] = *b"DYWALSEG";
const CKPT_MAGIC: [u8; 8] = *b"DYWALCKP";

/// Bytes of a segment header.
pub const SEGMENT_HEADER_LEN: usize = 8 + 2 + 4 + 8;
/// Bytes of a checkpoint header (before the snapshot body).
pub const CKPT_HEADER_LEN: usize = 8 + 2 + 4 + 4 + 8 + 8 + 4;

// ---------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected), table-driven. Implemented here —
/// the container is offline, so no external checksum crate.
pub fn crc32(data: &[u8]) -> u32 {
    // Slicing-by-eight: eight independent table lookups per 8-byte
    // chunk instead of one dependent lookup per byte — the WAL
    // checksums every record on the ingest hot path, so the byte-wise
    // loop was a measurable slice of the append cost.
    static TABLES: [[u32; 256]; 8] = crc_tables();
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in chunks.by_ref() {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

// ------------------------------------------------------------ file names

/// `wal-{stream:02}-{start_seq:016}.seg`
pub fn segment_name(stream: u32, start_seq: u64) -> String {
    format!("wal-{stream:02}-{start_seq:016}.seg")
}

/// Inverse of [`segment_name`]; `None` for anything else.
pub fn parse_segment_name(name: &str) -> Option<(u32, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    let (stream, seq) = rest.split_once('-')?;
    Some((stream.parse().ok()?, seq.parse().ok()?))
}

/// `ckpt-{seq:016}.snap`
pub fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:016}.snap")
}

/// Inverse of [`checkpoint_name`]; `None` for anything else.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// Whether `name` is a half-written temporary (crashed atomic publish).
pub fn is_tmp_name(name: &str) -> bool {
    name.ends_with(".tmp")
}

// -------------------------------------------------------------- manifest

/// The directory's pinned identity: format version, engine `k`, and
/// WAL stream count. Written once at initialization; every reopen must
/// match it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Format version the directory was written with.
    pub version: u16,
    /// `k` of the engine whose accepted stream is logged.
    pub k: u32,
    /// Number of WAL streams records are routed across.
    pub streams: u32,
}

/// Encodes a manifest at [`FORMAT_VERSION`].
pub fn encode_manifest(k: u32, streams: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(22);
    out.extend_from_slice(&MAN_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u32(&mut out, k);
    put_u32(&mut out, streams);
    let crc = crc32(&out[8..]);
    put_u32(&mut out, crc);
    out
}

/// Decodes and validates a manifest.
pub fn decode_manifest(bytes: &[u8]) -> Result<Manifest, DurableError> {
    let corrupt = |what| DurableError::Corrupt {
        file: MANIFEST_NAME.into(),
        what,
    };
    if bytes.len() != 22 {
        return Err(corrupt("wrong length"));
    }
    if bytes[..8] != MAN_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let crc = u32::from_le_bytes(bytes[18..22].try_into().unwrap());
    if crc != crc32(&bytes[8..18]) {
        return Err(corrupt("checksum mismatch"));
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    if version > FORMAT_VERSION {
        return Err(DurableError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    Ok(Manifest {
        version,
        k: u32::from_le_bytes(bytes[10..14].try_into().unwrap()),
        streams: u32::from_le_bytes(bytes[14..18].try_into().unwrap()),
    })
}

// -------------------------------------------------------------- segments

/// A validated segment header.
#[derive(Debug, Clone, Copy)]
pub struct SegmentHeader {
    /// Format version of this segment.
    pub version: u16,
    /// The stream this segment belongs to.
    pub stream: u32,
    /// Global sequence number of the first record written to it.
    pub start_seq: u64,
}

/// Encodes a segment header.
pub fn encode_segment_header(stream: u32, start_seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
    out.extend_from_slice(&SEG_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u32(&mut out, stream);
    put_u64(&mut out, start_seq);
    out
}

/// Decodes a segment header, or says why it is unusable. `Err` here is
/// *damage*, not a typed refusal — the scanner decides whether damage
/// in this position is a legal torn tail or mid-log corruption.
pub fn decode_segment_header(bytes: &[u8]) -> Result<SegmentHeader, &'static str> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err("truncated segment header");
    }
    if bytes[..8] != SEG_MAGIC {
        return Err("bad segment magic");
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    if version > FORMAT_VERSION {
        return Err("segment version newer than manifest allows");
    }
    Ok(SegmentHeader {
        version,
        stream: u32::from_le_bytes(bytes[10..14].try_into().unwrap()),
        start_seq: u64::from_le_bytes(bytes[14..22].try_into().unwrap()),
    })
}

// --------------------------------------------------------------- records

/// Appends one framed record (`len · crc · seq · update body`) to `out`.
pub fn encode_record(seq: u64, update: &Update, out: &mut Vec<u8>) {
    let frame = out.len();
    put_u32(out, 0); // len, patched below
    put_u32(out, 0); // crc, patched below
    let payload = out.len();
    put_u64(out, seq);
    encode_update_body(update, out);
    let len = (out.len() - payload) as u32;
    let crc = crc32(&out[payload..]);
    out[frame..frame + 4].copy_from_slice(&len.to_le_bytes());
    out[frame + 4..frame + 8].copy_from_slice(&crc.to_le_bytes());
}

/// One step of record decoding at `buf[off..]`.
#[derive(Debug)]
pub enum RecordStep {
    /// A whole, checksum-valid, decodable record ending at `next`.
    Record {
        /// The record's global sequence number.
        seq: u64,
        /// The logged update.
        update: Update,
        /// Offset of the next record.
        next: usize,
    },
    /// `off` is exactly the end of the buffer: a clean segment end.
    End,
    /// The bytes at `off..` are not a whole valid record — a torn tail
    /// if this is the stream's final segment, corruption otherwise.
    Damaged(&'static str),
}

/// Decodes the record starting at `buf[off..]`.
pub fn decode_record(buf: &[u8], off: usize) -> RecordStep {
    let rem = buf.len() - off;
    if rem == 0 {
        return RecordStep::End;
    }
    if rem < 8 {
        return RecordStep::Damaged("truncated record frame");
    }
    let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
    if len > MAX_RECORD {
        return RecordStep::Damaged("record length out of bounds");
    }
    if rem < 8 + len {
        return RecordStep::Damaged("truncated record payload");
    }
    let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
    let payload = &buf[off + 8..off + 8 + len];
    if crc != crc32(payload) {
        return RecordStep::Damaged("record checksum mismatch");
    }
    let mut r = Reader::new(payload);
    let decoded = (|| {
        let seq = r.take_u64("record seq")?;
        let update = take_update(&mut r)?;
        r.finish()?;
        Ok::<_, dynamis_serve::wire::WireError>((seq, update))
    })();
    match decoded {
        Ok((seq, update)) => RecordStep::Record {
            seq,
            update,
            next: off + 8 + len,
        },
        Err(_) => RecordStep::Damaged("record payload does not decode"),
    }
}

// ------------------------------------------------------------ checkpoints

/// A validated checkpoint header.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointHeader {
    /// Format version of this checkpoint.
    pub version: u16,
    /// `k` the snapshotted engine was built with.
    pub k: u32,
    /// WAL stream count at capture time.
    pub streams: u32,
    /// Accepted-update sequence number the snapshot covers (inclusive).
    pub seq: u64,
}

/// Encodes a checkpoint file: the header, then the snapshot body that
/// `write_body` appends to the buffer, so a live engine's state goes
/// into the file buffer with no intermediate copy. The body length and
/// CRC are patched into the header afterwards.
pub fn encode_checkpoint(
    k: u32,
    streams: u32,
    seq: u64,
    write_body: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(CKPT_HEADER_LEN);
    out.extend_from_slice(&CKPT_MAGIC);
    put_u16(&mut out, FORMAT_VERSION);
    put_u32(&mut out, k);
    put_u32(&mut out, streams);
    put_u64(&mut out, seq);
    put_u64(&mut out, 0); // body_len, patched below
    put_u32(&mut out, 0); // body_crc, patched below
    write_body(&mut out);
    let body = &out[CKPT_HEADER_LEN..];
    let (len, crc) = (body.len() as u64, crc32(body));
    out[26..34].copy_from_slice(&len.to_le_bytes());
    out[34..38].copy_from_slice(&crc.to_le_bytes());
    out
}

/// What checkpoint decoding found. Version and `k` policy (refuse vs
/// fall back) belongs to the scanner; this layer only classifies.
#[derive(Debug)]
pub enum CheckpointOutcome {
    /// Structurally valid at a supported version.
    Valid(CheckpointHeader, Snapshot),
    /// Written by a newer format version — a refusal, never a skip.
    NewerVersion(u16),
    /// Structurally damaged (length, magic, checksum, or body).
    Damaged(&'static str),
}

/// Decodes and validates a checkpoint file.
pub fn decode_checkpoint(bytes: &[u8]) -> CheckpointOutcome {
    use CheckpointOutcome::{Damaged, NewerVersion, Valid};
    if bytes.len() < CKPT_HEADER_LEN {
        return Damaged("truncated checkpoint header");
    }
    if bytes[..8] != CKPT_MAGIC {
        return Damaged("bad checkpoint magic");
    }
    let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
    if version > FORMAT_VERSION {
        return NewerVersion(version);
    }
    let k = u32::from_le_bytes(bytes[10..14].try_into().unwrap());
    let streams = u32::from_le_bytes(bytes[14..18].try_into().unwrap());
    let seq = u64::from_le_bytes(bytes[18..26].try_into().unwrap());
    let body_len = u64::from_le_bytes(bytes[26..34].try_into().unwrap());
    let body_crc = u32::from_le_bytes(bytes[34..38].try_into().unwrap());
    let body = &bytes[CKPT_HEADER_LEN..];
    if body_len != body.len() as u64 {
        return Damaged("checkpoint body length mismatch");
    }
    if body_crc != crc32(body) {
        return Damaged("checkpoint body checksum mismatch");
    }
    match Snapshot::decode(body) {
        Ok(snapshot) => Valid(
            CheckpointHeader {
                version,
                k,
                streams,
                seq,
            },
            snapshot,
        ),
        Err(_) => Damaged("checkpoint snapshot does not decode"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414f_a339
        );
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(parse_segment_name(&segment_name(3, 17)), Some((3, 17)));
        assert_eq!(parse_checkpoint_name(&checkpoint_name(42)), Some(42));
        assert_eq!(parse_segment_name("ckpt-0000000000000042.snap"), None);
        assert_eq!(parse_checkpoint_name("wal-00-0000000000000001.seg"), None);
        assert!(is_tmp_name("ckpt-0000000000000042.tmp"));
    }

    #[test]
    fn record_round_trip_and_damage() {
        let mut buf = Vec::new();
        encode_record(7, &Update::InsertEdge(1, 2), &mut buf);
        let end = buf.len();
        encode_record(
            8,
            &Update::InsertVertex {
                id: 9,
                neighbors: vec![1, 2, 3],
            },
            &mut buf,
        );
        match decode_record(&buf, 0) {
            RecordStep::Record { seq, update, next } => {
                assert_eq!(seq, 7);
                assert_eq!(update, Update::InsertEdge(1, 2));
                assert_eq!(next, end);
            }
            other => panic!("expected record, got {other:?}"),
        }
        assert!(matches!(decode_record(&buf, buf.len()), RecordStep::End));
        // Any bit flip anywhere in a record must be caught.
        for off in 0..buf.len() {
            let mut bad = buf.clone();
            bad[off] ^= 0x10;
            let first = decode_record(&bad, 0);
            if off < end {
                assert!(
                    matches!(first, RecordStep::Damaged(_)),
                    "flip at {off} went unnoticed"
                );
            }
        }
        // Every strict prefix is either a clean end or damage — never a
        // record (no truncation can fake a valid frame).
        for cut in 0..buf.len() {
            match decode_record(&buf[..cut], 0) {
                RecordStep::End | RecordStep::Damaged(_) => {}
                RecordStep::Record { next, .. } => assert_eq!(next, end),
            }
        }
    }

    #[test]
    fn manifest_round_trip_and_version_refusal() {
        let bytes = encode_manifest(2, 4);
        let m = decode_manifest(&bytes).unwrap();
        assert_eq!(
            m,
            Manifest {
                version: FORMAT_VERSION,
                k: 2,
                streams: 4
            }
        );
        let mut newer = bytes.clone();
        newer[8] = FORMAT_VERSION as u8 + 1;
        // A bumped version with a stale checksum is damage…
        assert!(matches!(
            decode_manifest(&newer),
            Err(DurableError::Corrupt { .. })
        ));
        // …with a recomputed checksum it is a typed version refusal.
        let crc = crc32(&newer[8..18]);
        newer[18..22].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_manifest(&newer),
            Err(DurableError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }
}
