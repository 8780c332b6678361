//! Pluggable segment storage.
//!
//! A [`SegmentStore`] is the narrow waist the archive writes through:
//! numbered byte segments supporting append, whole-segment read,
//! truncate and remove. Keeping the surface this small is what makes
//! the [`crate::faulty::FaultyStore`] wrapper able to model every
//! storage failure the recovery scan must survive, and what lets tests
//! swap a real directory for an in-memory map without touching the
//! archive logic.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Identifies one append-only segment. Segments are strictly ordered:
/// the archive only ever appends to the highest id.
pub type SegmentId = u64;

/// A storage-backend failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The backend failed (I/O error text from the OS, or an injected
    /// fault description).
    Io(String),
    /// The backend refused the write — an injected stall or a wedged
    /// device. The archive counts the record as dropped and delivery
    /// continues.
    Stalled,
    /// The segment does not exist.
    MissingSegment(SegmentId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O failure: {e}"),
            StoreError::Stalled => write!(f, "storage stalled"),
            StoreError::MissingSegment(id) => write!(f, "segment {id} does not exist"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Append-only segment storage.
///
/// Reads take `&mut self` so fault-injecting implementations can
/// advance their deterministic fault stream on every operation, not
/// just on writes.
pub trait SegmentStore: Send + std::fmt::Debug {
    /// Appends `bytes` to `segment`, creating it if absent.
    fn append(&mut self, segment: SegmentId, bytes: &[u8]) -> Result<(), StoreError>;

    /// Reads a segment's full contents.
    fn read(&mut self, segment: SegmentId) -> Result<Vec<u8>, StoreError>;

    /// A segment's current length in bytes.
    fn len(&mut self, segment: SegmentId) -> Result<u64, StoreError>;

    /// Truncates a segment to `len` bytes (the recovery scan cutting a
    /// torn tail).
    fn truncate(&mut self, segment: SegmentId, len: u64) -> Result<(), StoreError>;

    /// Removes a segment entirely (the recovery scan dropping segments
    /// past the first corruption).
    fn remove(&mut self, segment: SegmentId) -> Result<(), StoreError>;

    /// Every existing segment id, ascending.
    fn segments(&mut self) -> Result<Vec<SegmentId>, StoreError>;

    /// Makes previous appends durable.
    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// In-memory backend: a map of segment id → bytes. The reference
/// implementation (and the replay tests' store of choice: recovery and
/// replay read back exactly what was appended, no filesystem between).
#[derive(Debug, Default)]
pub struct MemStore {
    segments: BTreeMap<SegmentId, Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl SegmentStore for MemStore {
    fn append(&mut self, segment: SegmentId, bytes: &[u8]) -> Result<(), StoreError> {
        self.segments.entry(segment).or_default().extend_from_slice(bytes);
        Ok(())
    }

    fn read(&mut self, segment: SegmentId) -> Result<Vec<u8>, StoreError> {
        self.segments.get(&segment).cloned().ok_or(StoreError::MissingSegment(segment))
    }

    fn len(&mut self, segment: SegmentId) -> Result<u64, StoreError> {
        self.segments
            .get(&segment)
            .map(|s| s.len() as u64)
            .ok_or(StoreError::MissingSegment(segment))
    }

    fn truncate(&mut self, segment: SegmentId, len: u64) -> Result<(), StoreError> {
        let seg = self.segments.get_mut(&segment).ok_or(StoreError::MissingSegment(segment))?;
        seg.truncate(len as usize);
        Ok(())
    }

    fn remove(&mut self, segment: SegmentId) -> Result<(), StoreError> {
        self.segments.remove(&segment).map(|_| ()).ok_or(StoreError::MissingSegment(segment))
    }

    fn segments(&mut self) -> Result<Vec<SegmentId>, StoreError> {
        Ok(self.segments.keys().copied().collect())
    }
}

/// Directory backend: one `segment-NNNNNNNNNNNNNNNNNNNN.log` file per
/// segment under a root directory.
///
/// The segment being appended to stays open between appends, in
/// append mode and with no user-space buffer: one `write_all` per
/// [`SegmentStore::append`], and the bytes are with the OS when it
/// returns — dropping the store or killing the process loses nothing it
/// acknowledged. [`SegmentStore::sync`] is what makes them survive the
/// machine.
#[derive(Debug)]
pub struct FileStore {
    root: PathBuf,
    /// The segment last appended to and its open handle; dropped when
    /// the writer moves to another id or the segment is removed.
    open: Option<(SegmentId, File)>,
    /// Segments written or truncated since the last successful sync.
    unsynced: BTreeSet<SegmentId>,
    /// A segment file was created since the last successful sync, so
    /// the directory entry itself still needs an fsync.
    dir_unsynced: bool,
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

/// Maps the OS's "no such file" onto the trait's typed error.
fn missing_or_io(segment: SegmentId) -> impl Fn(std::io::Error) -> StoreError {
    move |e| match e.kind() {
        std::io::ErrorKind::NotFound => StoreError::MissingSegment(segment),
        _ => io_err(e),
    }
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`. No segment
    /// file is opened until the first append.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        let root = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&root).map_err(io_err)?;
        Ok(FileStore { root, open: None, unsynced: BTreeSet::new(), dir_unsynced: false })
    }

    fn file_name(segment: SegmentId) -> String {
        format!("segment-{segment:020}.log")
    }

    fn path(&self, segment: SegmentId) -> PathBuf {
        self.root.join(Self::file_name(segment))
    }

    /// The append handle for `segment`, opening (and creating) the file
    /// only when the writer moved off the segment it last appended to.
    #[expect(clippy::expect_used, reason = "the branch above leaves `open` holding `segment`")]
    fn handle(&mut self, segment: SegmentId) -> Result<&mut File, StoreError> {
        if !matches!(&self.open, Some((id, _)) if *id == segment) {
            let path = self.path(segment);
            let created = !path.exists();
            let file =
                std::fs::OpenOptions::new().append(true).create(true).open(path).map_err(io_err)?;
            self.dir_unsynced |= created;
            self.open = Some((segment, file));
        }
        Ok(&mut self.open.as_mut().expect("set just above").1)
    }
}

impl SegmentStore for FileStore {
    fn append(&mut self, segment: SegmentId, bytes: &[u8]) -> Result<(), StoreError> {
        use std::io::Write as _;
        let written = self.handle(segment)?.write_all(bytes);
        self.unsynced.insert(segment);
        written.map_err(io_err)
    }

    fn read(&mut self, segment: SegmentId) -> Result<Vec<u8>, StoreError> {
        std::fs::read(self.path(segment)).map_err(missing_or_io(segment))
    }

    fn len(&mut self, segment: SegmentId) -> Result<u64, StoreError> {
        std::fs::metadata(self.path(segment)).map(|m| m.len()).map_err(missing_or_io(segment))
    }

    fn truncate(&mut self, segment: SegmentId, len: u64) -> Result<(), StoreError> {
        // Through the path, not the held handle: that one is in append
        // mode, so its next write lands at the new end of file anyway.
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(segment))
            .map_err(missing_or_io(segment))?;
        self.unsynced.insert(segment);
        f.set_len(len).map_err(io_err)
    }

    fn remove(&mut self, segment: SegmentId) -> Result<(), StoreError> {
        // Let go of the handle first: kept, a later append to the same
        // id would write to the unlinked inode and vanish.
        if matches!(&self.open, Some((id, _)) if *id == segment) {
            self.open = None;
        }
        self.unsynced.remove(&segment);
        std::fs::remove_file(self.path(segment)).map_err(missing_or_io(segment))
    }

    fn segments(&mut self) -> Result<Vec<SegmentId>, StoreError> {
        let mut ids = Vec::new();
        for entry in std::fs::read_dir(&self.root).map_err(io_err)? {
            let name = entry.map_err(io_err)?.file_name();
            let Some(name) = name.to_str() else { continue };
            let digits = name.strip_prefix("segment-").and_then(|r| r.strip_suffix(".log"));
            // Only the canonical spelling: `segment-1.log` or
            // `segment-+5.log` parse to ids whose `path(id)` is a
            // different, absent file, and recovery would fail on them.
            let id = digits.and_then(|d| d.parse::<SegmentId>().ok());
            ids.extend(id.filter(|&id| Self::file_name(id) == name));
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        for &id in &self.unsynced {
            match &self.open {
                Some((open, file)) if *open == id => file.sync_all(),
                _ => File::open(self.path(id)).and_then(|f| f.sync_all()),
            }
            .map_err(missing_or_io(id))?;
        }
        self.unsynced.clear();
        // A new file is durable only once its directory entry is
        // (directories cannot be opened for this off unix).
        if self.dir_unsynced && cfg!(unix) {
            File::open(&self.root).and_then(|d| d.sync_all()).map_err(io_err)?;
        }
        self.dir_unsynced = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn SegmentStore) {
        store.append(0, b"hello ").unwrap();
        store.append(0, b"world").unwrap();
        store.append(2, b"xyz").unwrap();
        assert_eq!(store.segments().unwrap(), vec![0, 2]);
        assert_eq!(store.read(0).unwrap(), b"hello world");
        assert_eq!(store.len(0).unwrap(), 11);
        store.truncate(0, 5).unwrap();
        assert_eq!(store.read(0).unwrap(), b"hello");
        store.remove(2).unwrap();
        assert_eq!(store.segments().unwrap(), vec![0]);
        assert_eq!(store.read(2), Err(StoreError::MissingSegment(2)));
        assert_eq!(store.len(9), Err(StoreError::MissingSegment(9)));
        store.sync().unwrap();

        // Append → remove → append the same id: the second append must
        // land in a new, visible segment (a backend holding a handle to
        // the removed one would write to an unlinked inode).
        store.append(4, b"gone").unwrap();
        store.remove(4).unwrap();
        store.append(4, b"back").unwrap();
        assert_eq!(store.read(4).unwrap(), b"back");
        // Append → truncate → append: the write lands at the new end.
        store.truncate(4, 2).unwrap();
        store.append(4, b"!!").unwrap();
        assert_eq!(store.read(4).unwrap(), b"ba!!");
        // Moving off a segment and back keeps appending at its end.
        store.append(0, b" again").unwrap();
        store.append(4, b"?").unwrap();
        assert_eq!(store.read(0).unwrap(), b"hello again");
        assert_eq!(store.read(4).unwrap(), b"ba!!?");
        store.sync().unwrap();
        store.remove(4).unwrap();
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("garnet-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_store_contract() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn file_store_contract() {
        let dir = scratch_dir("contract");
        let mut store = FileStore::open(&dir).unwrap();
        exercise(&mut store);
        // Reopening sees the same state — with the first instance still
        // alive, so nothing was waiting in it to be flushed on drop.
        let mut reopened = FileStore::open(&dir).unwrap();
        assert_eq!(reopened.read(0).unwrap(), b"hello again");
        assert_eq!(reopened.segments().unwrap(), vec![0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_lists_only_canonically_named_segments() {
        let dir = scratch_dir("names");
        let mut store = FileStore::open(&dir).unwrap();
        store.append(7, b"x").unwrap();
        for stray in ["segment-1.log", "segment-+5.log", "segment-.log", "segment-7.log.bak"] {
            std::fs::write(dir.join(stray), b"stray").unwrap();
        }
        // Every listed id must be readable back through `path(id)`,
        // which is what the recovery scan does next.
        assert_eq!(store.segments().unwrap(), vec![7]);
        assert_eq!(store.read(7).unwrap(), b"x");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_sync_reports_a_segment_it_cannot_open() {
        let dir = scratch_dir("sync");
        let mut store = FileStore::open(&dir).unwrap();
        store.append(0, b"a").unwrap();
        store.append(1, b"b").unwrap();
        // Segment 0 is written, unsynced, and no longer the held handle;
        // it disappears behind the store's back.
        std::fs::remove_file(store.path(0)).unwrap();
        assert_eq!(store.sync(), Err(StoreError::MissingSegment(0)));
        // The failure is not forgotten: the next sync reports it again.
        assert_eq!(store.sync(), Err(StoreError::MissingSegment(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
