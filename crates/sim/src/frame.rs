//! The shared frame codec: `[tag u8][len u32][payload][crc u32]`.
//!
//! One framing discipline runs through every byte stream in Symphony — the
//! KVFS journal (`SYMJ`), the kernel write-ahead log (`SYMW`) and the RPC
//! wire protocol (`SYMR`) all encode and read frames through this module,
//! so the checksum and the length prefix can never drift apart between
//! them. The two on-disk logs share the rest of their format too — header,
//! prefix walk, torn-tail rules and file handling — in [`crate::log`].
//! Each consumer brings its own tag space; the codec is agnostic to it.
//!
//! * the CRC is FNV-1a (32-bit) over tag + payload;
//! * all integers are little-endian;
//! * [`next_frame`] returns `None` on a short or corrupt frame, which is
//!   how a reader finds a torn tail.

/// 32-bit FNV-1a over `bytes` (offset basis `0x811c9dc5`, prime
/// `0x01000193`). Not cryptographic: it detects torn and bit-flipped
/// frames, not an adversary.
pub const fn fnv1a(bytes: &[u8]) -> u32 {
    fnv1a_extend(0x811c_9dc5, bytes)
}

/// Continues an FNV-1a `hash` over `bytes`: hashing two pieces in turn
/// equals hashing their concatenation, without building it.
const fn fnv1a_extend(mut hash: u32, bytes: &[u8]) -> u32 {
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u32;
        hash = hash.wrapping_mul(0x0100_0193);
        i += 1;
    }
    hash
}

/// Per-frame overhead in bytes: tag (1) + length (4) + CRC (4).
pub const FRAME_OVERHEAD: usize = 9;

/// Appends one raw frame — `[tag u8][len u32][payload][crc u32]`, CRC over
/// tag + payload — to `out`.
pub fn append_frame(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    push_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    push_u32(out, frame_crc(tag, payload));
}

/// The CRC a valid frame with this tag and payload must carry.
pub const fn frame_crc(tag: u8, payload: &[u8]) -> u32 {
    fnv1a_extend(fnv1a(&[tag]), payload)
}

/// The complete frame for `tag` with an empty payload, built at compile
/// time: a log's terminator (see [`crate::log::Format::terminator`]).
pub const fn empty_frame(tag: u8) -> [u8; FRAME_OVERHEAD] {
    let crc = frame_crc(tag, &[]).to_le_bytes();
    [tag, 0, 0, 0, 0, crc[0], crc[1], crc[2], crc[3]]
}

/// Reads one `[tag][len][payload][crc]` frame, verifying the checksum.
/// `None` on a short or corrupt frame (the cursor may be mid-frame).
pub fn next_frame<'a>(c: &mut Cursor<'a>) -> Option<(u8, &'a [u8])> {
    let tag = c.u8()?;
    let len = c.u32()?;
    let payload = c.take(len as usize)?;
    let stored = c.u32()?;
    (stored == frame_crc(tag, payload)).then_some((tag, payload))
}

/// Appends a little-endian `u32`.
pub fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32` byte length followed by the UTF-8 bytes.
pub fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a presence byte followed by the value (0 when absent).
pub fn push_opt_u64(out: &mut Vec<u8>, v: Option<u64>) {
    out.push(u8::from(v.is_some()));
    push_u64(out, v.unwrap_or(0));
}

/// Sequential byte reader returning `None` past the end (a torn frame).
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Current read offset from the start of the underlying slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Takes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
    }

    /// Reads a length-prefixed UTF-8 string (see [`push_str`]).
    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// Reads a presence-byte-prefixed `u64` (see [`push_opt_u64`]).
    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        let has = self.u8()? != 0;
        let v = self.u64()?;
        Some(has.then_some(v))
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every whole frame from the start of `bytes`, and whether bytes that
    /// do not form one followed them.
    fn frames(bytes: &[u8]) -> (Vec<(u8, &[u8])>, bool) {
        let mut c = Cursor::new(bytes);
        let mut out = Vec::new();
        loop {
            let mark = c.pos();
            match next_frame(&mut c) {
                Some(frame) => out.push(frame),
                None => return (out, mark != bytes.len()),
            }
        }
    }

    #[test]
    fn round_trips_frames() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 7, b"hello");
        append_frame(&mut buf, 9, b"");
        let (got, torn) = frames(&buf);
        assert!(!torn);
        assert_eq!(got, vec![(7, &b"hello"[..]), (9, &b""[..])]);
    }

    #[test]
    fn truncation_at_every_byte_keeps_valid_prefix() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 1, b"abc");
        append_frame(&mut buf, 2, b"defg");
        let first_len = FRAME_OVERHEAD + 3;
        for cut in 0..=buf.len() {
            let (got, torn) = frames(&buf[..cut]);
            if cut < first_len {
                assert!(got.is_empty());
                assert_eq!(torn, cut != 0, "cut={cut}");
            } else if cut < buf.len() {
                assert_eq!(got, vec![(1, &b"abc"[..])], "cut={cut}");
                assert_eq!(torn, cut != first_len, "cut={cut}");
            } else {
                assert_eq!(got.len(), 2);
                assert!(!torn);
            }
        }
    }

    #[test]
    fn corrupt_crc_truncates_frame_stream() {
        let mut buf = Vec::new();
        append_frame(&mut buf, 1, b"abc");
        append_frame(&mut buf, 2, b"def");
        let flip = FRAME_OVERHEAD + 3 + 2; // inside the second frame's header
        buf[flip] ^= 0xff;
        let (got, torn) = frames(&buf);
        assert_eq!(got.len(), 1);
        assert!(torn);
    }

    #[test]
    fn scalar_helpers_round_trip() {
        let mut buf = Vec::new();
        push_u32(&mut buf, 0xdead_beef);
        push_u64(&mut buf, u64::MAX - 1);
        push_str(&mut buf, "héllo");
        push_opt_u64(&mut buf, Some(42));
        push_opt_u64(&mut buf, None);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32(), Some(0xdead_beef));
        assert_eq!(c.u64(), Some(u64::MAX - 1));
        assert_eq!(c.str().as_deref(), Some("héllo"));
        assert_eq!(c.opt_u64(), Some(Some(42)));
        assert_eq!(c.opt_u64(), Some(None));
        assert!(c.done());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 32-bit test vectors.
        assert_eq!(fnv1a(b""), 0x811c_9dc5);
        assert_eq!(fnv1a(b"a"), 0xe40c_292c);
        assert_eq!(fnv1a(b"foobar"), 0xbf9c_f968);
    }

    #[test]
    fn frame_crc_is_fnv1a_over_tag_then_payload() {
        // Pinned: every WAL, journal and SYMR frame on disk or on the wire
        // carries this checksum.
        assert_eq!(frame_crc(7, b"hello"), 0xea7b_9d96);
        assert_eq!(frame_crc(7, b"hello"), fnv1a(b"\x07hello"));
        assert_eq!(frame_crc(9, b""), fnv1a(&[9]));
        let mut buf = Vec::new();
        append_frame(&mut buf, 7, b"hello");
        assert_eq!(buf[buf.len() - 4..], 0xea7b_9d96_u32.to_le_bytes());
        let mut empty = Vec::new();
        append_frame(&mut empty, 9, b"");
        assert_eq!(empty, empty_frame(9));
    }
}
