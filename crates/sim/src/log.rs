//! The append-only log discipline shared by the KVFS journal (`SYMJ`) and
//! the kernel write-ahead log (`SYMW`).
//!
//! A log is a fixed header, `[magic 4][version u32][N × u64][crc u32]`
//! with an FNV-1a CRC over the bytes before it, followed by frames from
//! [`crate::frame`]. Each log brings its magic, version, header fields and
//! tag space in a [`Format`]; this module owns the rest:
//!
//! * the header, written by [`Format::header`] and checked with a typed
//!   [`HeaderError`];
//! * the prefix walk, [`Format::walk`]: the log is the longest run of
//!   frames the caller can decode, and whatever follows — a torn write, a
//!   bad checksum, an unknown tag, a malformed payload — is a cut tail;
//! * the terminator: a format that names one (the journal's `End`) is
//!   complete only where the walk meets it, and every write reseals it; a
//!   format without one (the WAL) is complete at any frame boundary;
//! * the file handle, [`LogFile`]: frames written straight through or
//!   buffered until a flush, reopening at a durable length (which cuts a
//!   torn tail), and compaction through a sibling temp file and one atomic
//!   rename.
//!
//! Every write reaches the OS through `write(2)` before the call returns.
//! That survives a crash of the writing process — the fault Symphony
//! models — but not power loss: nothing here calls `fsync`.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::frame::{append_frame, fnv1a, next_frame, push_u32, push_u64, Cursor, FRAME_OVERHEAD};

/// One log's on-disk identity: its header shape and its terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format<const N: usize> {
    /// File magic, the header's first four bytes.
    pub magic: [u8; 4],
    /// Format version; a reader rejects any other.
    pub version: u32,
    /// The raw frame that seals a complete log (see
    /// [`crate::frame::empty_frame`]), or empty when every frame boundary
    /// is a complete log.
    pub terminator: &'static [u8],
}

/// Why a log's header is unusable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeaderError {
    /// Fewer bytes than a header.
    Short,
    /// Another magic or version: a different log, or a newer one.
    Incompatible,
    /// The header's checksum does not match its bytes.
    Corrupt,
}

/// What [`Format::walk`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk<const N: usize> {
    /// The header's fields.
    pub fields: [u64; N],
    /// Byte length of the valid prefix, header and terminator included:
    /// the length to reopen the file at.
    pub len: u64,
    /// Whether a tail was cut or the terminator is missing.
    pub torn: bool,
}

impl<const N: usize> Format<N> {
    /// Header length in bytes.
    pub const HEADER_LEN: usize = 4 + 4 + 8 * N + 4;

    /// Encodes a header carrying `fields`.
    pub fn header(&self, fields: [u64; N]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(Self::HEADER_LEN);
        buf.extend_from_slice(&self.magic);
        push_u32(&mut buf, self.version);
        for field in fields {
            push_u64(&mut buf, field);
        }
        let crc = fnv1a(&buf);
        push_u32(&mut buf, crc);
        buf
    }

    fn read_header(&self, bytes: &[u8]) -> Result<[u64; N], HeaderError> {
        if bytes.len() < Self::HEADER_LEN {
            return Err(HeaderError::Short);
        }
        let mut c = Cursor::new(bytes);
        if c.take(4) != Some(&self.magic[..]) || c.u32() != Some(self.version) {
            return Err(HeaderError::Incompatible);
        }
        let mut fields = [0; N];
        for field in &mut fields {
            *field = c.u64().ok_or(HeaderError::Short)?;
        }
        if c.u32() != Some(fnv1a(&bytes[..Self::HEADER_LEN - 4])) {
            return Err(HeaderError::Corrupt);
        }
        Ok(fields)
    }

    /// Checks the header, then hands each frame's tag and payload, borrowed
    /// from `bytes`, to `visit` until the log ends. `visit` returns `false`
    /// for a frame it cannot decode, which ends the prefix exactly like a
    /// torn frame. The terminator is not visited; bytes after it are
    /// ignored.
    pub fn walk(
        &self,
        bytes: &[u8],
        mut visit: impl FnMut(u8, &[u8]) -> bool,
    ) -> Result<Walk<N>, HeaderError> {
        let fields = self.read_header(bytes)?;
        let body = &bytes[Self::HEADER_LEN..];
        let walk = |valid: usize, torn: bool| Walk {
            fields,
            len: (Self::HEADER_LEN + valid) as u64,
            torn,
        };
        let mut c = Cursor::new(body);
        loop {
            let mark = c.pos();
            match next_frame(&mut c) {
                None => {
                    return Ok(walk(
                        mark,
                        mark != body.len() || !self.terminator.is_empty(),
                    ));
                }
                Some(_) if body[mark..c.pos()] == *self.terminator => {
                    return Ok(walk(c.pos(), false));
                }
                Some((tag, payload)) => {
                    if !visit(tag, payload) {
                        return Ok(walk(mark, true));
                    }
                }
            }
        }
    }
}

/// An open log file. Frames either go straight to disk ([`LogFile::append`])
/// or wait in a buffer for the next [`LogFile::flush`]; a straight-through
/// frame does not flush the buffer first. Each write lands over the
/// terminator and reseals it, so every crash window leaves either the
/// previous log or a torn tail that [`Format::walk`] cuts.
#[derive(Debug)]
pub struct LogFile {
    path: PathBuf,
    file: File,
    terminator: &'static [u8],
    /// Bytes on disk, the terminator included.
    durable: u64,
    /// Frames waiting for the next flush.
    buffer: Vec<u8>,
    buffered_frames: u64,
    compactions: u64,
}

impl LogFile {
    /// Creates (truncating) the log at `path` holding `contents`: a header,
    /// or a whole log sealed by `terminator`.
    pub fn create(path: &Path, contents: &[u8], terminator: &'static [u8]) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(contents)?;
        Ok(Self::with_file(
            path,
            file,
            contents.len() as u64,
            terminator,
        ))
    }

    /// Opens the log at `path` for appending after its first `durable_len`
    /// bytes (a [`Walk::len`]); a torn tail past them is truncated.
    pub fn open(path: &Path, durable_len: u64, terminator: &'static [u8]) -> io::Result<Self> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(durable_len)?;
        Ok(Self::with_file(path, file, durable_len, terminator))
    }

    fn with_file(path: &Path, file: File, durable: u64, terminator: &'static [u8]) -> Self {
        LogFile {
            path: path.to_path_buf(),
            file,
            terminator,
            durable,
            buffer: Vec::new(),
            buffered_frames: 0,
            compactions: 0,
        }
    }

    /// Writes one frame straight through, ahead of any buffered frames.
    pub fn append(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        append_frame(&mut frame, tag, payload);
        self.write_sealed(&frame)
    }

    /// Buffers one frame for the next flush.
    pub fn buffer(&mut self, tag: u8, payload: &[u8]) {
        append_frame(&mut self.buffer, tag, payload);
        self.buffered_frames += 1;
    }

    /// Writes the buffered frames in one piece and returns how many there
    /// were. A no-op with an empty buffer.
    pub fn flush(&mut self) -> io::Result<u64> {
        if self.buffer.is_empty() {
            return Ok(0);
        }
        let buffer = std::mem::take(&mut self.buffer);
        let written = self.write_sealed(&buffer);
        self.buffer = buffer;
        written?;
        self.buffer.clear();
        Ok(std::mem::take(&mut self.buffered_frames))
    }

    /// Overwrites the terminator with `frames` and reseals.
    fn write_sealed(&mut self, frames: &[u8]) -> io::Result<()> {
        let at = self.durable - self.terminator.len() as u64;
        self.file.seek(SeekFrom::Start(at))?;
        self.file.write_all(frames)?;
        self.file.write_all(self.terminator)?;
        self.durable = at + (frames.len() + self.terminator.len()) as u64;
        Ok(())
    }

    /// Buffered bytes not yet written.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Bytes on disk, the terminator included.
    pub fn durable_len(&self) -> u64 {
        self.durable
    }

    /// Log size: bytes on disk plus the buffer.
    pub fn bytes(&self) -> u64 {
        self.durable + self.buffer.len() as u64
    }

    /// A crash: the buffered frames are lost.
    pub fn drop_buffer(&mut self) {
        self.buffer.clear();
        self.buffered_frames = 0;
    }

    /// Replaces the log with `contents`, which must hold everything the log
    /// and its buffer replay to (the buffer is dropped). Crash-safe: the
    /// contents land in a sibling temp file that one atomic rename puts in
    /// place, so a crash before the rename leaves the old log untouched.
    pub fn compact(&mut self, contents: &[u8]) -> io::Result<()> {
        let file = self.write_temp(contents)?;
        std::fs::rename(self.temp_path(), &self.path)?;
        self.file = file;
        self.durable = contents.len() as u64;
        self.drop_buffer();
        self.compactions += 1;
        Ok(())
    }

    /// Fault-injection twin of [`LogFile::compact`]: writes the temp file
    /// and "crashes" before the rename, leaving the log on disk and this
    /// handle unchanged.
    #[doc(hidden)]
    pub fn compact_crash_before_rename(&self, contents: &[u8]) -> io::Result<()> {
        self.write_temp(contents).map(drop)
    }

    fn write_temp(&self, contents: &[u8]) -> io::Result<File> {
        let mut file = File::create(self.temp_path())?;
        file.write_all(contents)?;
        Ok(file)
    }

    fn temp_path(&self) -> PathBuf {
        let mut name = self.path.file_name().unwrap_or_default().to_os_string();
        name.push(".compact");
        self.path.with_file_name(name)
    }

    /// Compactions performed over this handle's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::empty_frame;

    const END: [u8; FRAME_OVERHEAD] = empty_frame(9);
    const OPEN: Format<2> = Format {
        magic: *b"TSTO",
        version: 3,
        terminator: &[],
    };
    const SEALED: Format<2> = Format {
        magic: *b"TSTS",
        version: 3,
        terminator: &END,
    };

    const FRAMES: [(u8, &[u8]); 3] = [(1, b"abc"), (2, b""), (3, b"defgh")];

    /// A header plus `FRAMES`, and the byte offset after the header and
    /// after each frame.
    fn log(format: &Format<2>) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = format.header([7, u64::MAX]);
        let mut bounds = vec![bytes.len()];
        for (tag, payload) in FRAMES {
            append_frame(&mut bytes, tag, payload);
            bounds.push(bytes.len());
        }
        (bytes, bounds)
    }

    /// Tag and payload of each frame a walk visits.
    type Seen = Vec<(u8, Vec<u8>)>;

    /// The frames a walk visits, and its result.
    fn walk(format: &Format<2>, bytes: &[u8]) -> Result<(Seen, Walk<2>), HeaderError> {
        let mut seen = Vec::new();
        let walk = format.walk(bytes, |tag, payload| {
            seen.push((tag, payload.to_vec()));
            true
        })?;
        Ok((seen, walk))
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("symphony-log-{}-{name}", std::process::id()))
    }

    #[test]
    fn header_errors_are_typed() {
        let header = OPEN.header([7, u64::MAX]);
        assert_eq!(header.len(), Format::<2>::HEADER_LEN);
        assert_eq!(walk(&OPEN, &header).unwrap().1.fields, [7, u64::MAX]);
        for cut in 0..header.len() {
            assert_eq!(
                walk(&OPEN, &header[..cut]),
                Err(HeaderError::Short),
                "cut {cut}"
            );
        }
        assert_eq!(
            walk(&SEALED, &header),
            Err(HeaderError::Incompatible),
            "magic"
        );
        let mut version = header.clone();
        version[4] = 4;
        assert_eq!(walk(&OPEN, &version), Err(HeaderError::Incompatible));
        for at in 8..header.len() {
            let mut corrupt = header.clone();
            corrupt[at] ^= 0x40;
            assert_eq!(
                walk(&OPEN, &corrupt),
                Err(HeaderError::Corrupt),
                "byte {at}"
            );
        }
    }

    #[test]
    fn walk_keeps_the_valid_prefix_at_every_cut() {
        let (bytes, bounds) = log(&OPEN);
        for cut in Format::<2>::HEADER_LEN..=bytes.len() {
            let (seen, w) = walk(&OPEN, &bytes[..cut]).unwrap();
            let whole = bounds.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(seen.len(), whole, "cut {cut}");
            for ((tag, payload), (want_tag, want)) in seen.iter().zip(FRAMES) {
                assert_eq!((*tag, &payload[..]), (want_tag, want), "cut {cut}");
            }
            assert_eq!(w.len, bounds[whole] as u64, "cut {cut}");
            assert_eq!(w.torn, !bounds.contains(&cut), "cut {cut}");
        }
    }

    #[test]
    fn refused_frame_cuts_like_a_tear() {
        let (bytes, bounds) = log(&OPEN);
        let mut visited = 0;
        let w = OPEN
            .walk(&bytes, |tag, _| {
                visited += 1;
                tag != 2
            })
            .unwrap();
        assert_eq!(visited, 2);
        assert_eq!((w.len, w.torn), (bounds[1] as u64, true));
        let mut corrupt = bytes.clone();
        corrupt[bounds[1] + 6] ^= 0xff;
        let (seen, w) = walk(&OPEN, &corrupt).unwrap();
        assert_eq!((seen.len(), w.len, w.torn), (1, bounds[1] as u64, true));
    }

    #[test]
    fn terminator_seals_the_log() {
        let (mut bytes, bounds) = log(&SEALED);
        // Without its terminator a sealed log is torn at every cut, even
        // at a frame boundary.
        for cut in Format::<2>::HEADER_LEN..=bytes.len() {
            let (_, w) = walk(&SEALED, &bytes[..cut]).unwrap();
            assert!(w.torn, "cut {cut}");
        }
        bytes.extend_from_slice(&END);
        let sealed = bytes.len();
        append_frame(&mut bytes, 4, b"after the end");
        let (seen, w) = walk(&SEALED, &bytes).unwrap();
        assert_eq!(
            seen.len(),
            FRAMES.len(),
            "frames after the terminator are ignored"
        );
        assert_eq!((w.len, w.torn), (sealed as u64, false));
        // A frame with the terminator's tag but another payload is not it.
        let mut fake = bytes[..bounds[3]].to_vec();
        append_frame(&mut fake, 9, b"x");
        let (seen, w) = walk(&SEALED, &fake).unwrap();
        assert_eq!((seen.len(), w.torn), (4, true));
    }

    #[test]
    fn appends_write_through_and_buffers_wait_for_flush() {
        let path = tmp("open.log");
        let header = OPEN.header([1, 2]);
        let mut f = LogFile::create(&path, &header, OPEN.terminator).unwrap();
        f.buffer(5, b"buffered");
        f.append(6, b"through").unwrap();
        assert_eq!(f.buffered(), FRAME_OVERHEAD + 8);
        assert_eq!(f.bytes(), f.durable_len() + f.buffered() as u64);
        let (seen, _) = walk(&OPEN, &std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            seen,
            vec![(6, b"through".to_vec())],
            "the buffer is not on disk"
        );
        assert_eq!(f.flush().unwrap(), 1);
        assert_eq!(f.flush().unwrap(), 0);
        f.buffer(7, b"lost");
        f.drop_buffer();
        assert_eq!(f.flush().unwrap(), 0);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, f.durable_len());
        let (seen, w) = walk(&OPEN, &on_disk).unwrap();
        assert_eq!(
            seen,
            vec![(6, b"through".to_vec()), (5, b"buffered".to_vec())]
        );
        assert!(!w.torn);

        // A torn tail is cut on reopen and appends land on a clean boundary.
        let mut torn = on_disk.clone();
        torn.extend_from_slice(&[6, 9, 0]);
        std::fs::write(&path, &torn).unwrap();
        let mut f = LogFile::open(&path, w.len, OPEN.terminator).unwrap();
        f.append(8, b"again").unwrap();
        let (seen, w) = walk(&OPEN, &std::fs::read(&path).unwrap()).unwrap();
        assert_eq!((seen.len(), w.torn), (3, false));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_write_reseals_the_terminator() {
        let path = tmp("sealed.log");
        let mut base = SEALED.header([1, 2]);
        base.extend_from_slice(&END);
        let mut f = LogFile::create(&path, &base, SEALED.terminator).unwrap();
        f.append(1, b"one").unwrap();
        f.buffer(2, b"two");
        f.buffer(3, b"three");
        assert_eq!(f.flush().unwrap(), 2);
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len() as u64, f.durable_len());
        assert!(on_disk.ends_with(&END));
        let (seen, w) = walk(&SEALED, &on_disk).unwrap();
        assert_eq!((seen.len(), w.len, w.torn), (3, f.durable_len(), false));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_before_rename_keeps_the_old_log() {
        let path = tmp("compact.log");
        let mut base = SEALED.header([1, 2]);
        base.extend_from_slice(&END);
        let mut f = LogFile::create(&path, &base, SEALED.terminator).unwrap();
        f.append(1, b"history").unwrap();
        let before = std::fs::read(&path).unwrap();
        let mut snapshot = SEALED.header([3, 4]);
        snapshot.extend_from_slice(&END);

        f.compact_crash_before_rename(&snapshot).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), before, "old log untouched");
        assert_eq!((f.compactions(), f.durable_len()), (0, before.len() as u64));

        f.buffer(2, b"subsumed");
        f.compact(&snapshot).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), snapshot);
        assert_eq!((f.compactions(), f.bytes()), (1, snapshot.len() as u64));
        // The handle writes to the compacted file, not the replaced one.
        f.append(5, b"next").unwrap();
        let (seen, w) = walk(&SEALED, &std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(
            (seen, w.fields, w.torn),
            (vec![(5, b"next".to_vec())], [3, 4], false)
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(f.temp_path()).ok();
    }
}
