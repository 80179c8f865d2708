//! The file-system backend API (§5.1).
//!
//! "A backend for the file system API only needs to implement nine
//! methods that correspond to standard Unix file system commands:
//! rename, stat, open, unlink, rmdir, mkdir, readdir, close, sync."
//! The one optional method, `utimes`, defaults to `ENOTSUP`. The unified
//! frontend ([`FileSystem`](crate::FileSystem)) standardizes arguments,
//! raises the errors, and maps the redundant API surface onto these core
//! operations, so "a file system needs to implement just nine methods"
//! to get full read/write functionality with NFS-style sync-on-close
//! semantics.

use doppio_jsengine::Engine;

use crate::error::{Errno, FsError, FsResult};

/// Completion callback for an asynchronous file-system operation.
///
/// Every backend operation completes through the event loop — there is
/// no synchronous interface, because many browser storage mechanisms
/// have none. Synchronous *source-language* semantics are layered on
/// top by `doppio-core`'s async→sync bridge (§4.2).
pub type FsCallback<T> = Box<dyn FnOnce(&Engine, FsResult<T>)>;

/// Kind of a directory entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileKind {
    /// Regular file.
    File,
    /// Directory.
    Directory,
}

/// Metadata returned by `stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// File or directory.
    pub kind: FileKind,
    /// Size in bytes (0 for directories).
    pub size: usize,
    /// Last modification, in virtual ns.
    pub mtime_ns: u64,
}

impl Stat {
    /// Whether this is a directory.
    pub fn is_dir(&self) -> bool {
        self.kind == FileKind::Directory
    }

    /// Whether this is a regular file.
    pub fn is_file(&self) -> bool {
        self.kind == FileKind::File
    }
}

/// Parsed open flags (Node's `"r"`, `"r+"`, `"w"`, `"w+"`, `"a"`,
/// `"a+"`, `"wx"`, `"ax"`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
    /// Writes go to the end of the file.
    pub append: bool,
    /// Create the file if missing.
    pub create: bool,
    /// Truncate to zero length on open.
    pub truncate: bool,
    /// Fail with `EEXIST` if the file already exists.
    pub exclusive: bool,
}

impl OpenFlags {
    /// Parse a Node-style flag string.
    pub fn parse(s: &str) -> FsResult<OpenFlags> {
        let f = |read, write, append, create, truncate, exclusive| OpenFlags {
            read,
            write,
            append,
            create,
            truncate,
            exclusive,
        };
        Ok(match s {
            "r" => f(true, false, false, false, false, false),
            "r+" => f(true, true, false, false, false, false),
            "w" => f(false, true, false, true, true, false),
            "w+" => f(true, true, false, true, true, false),
            "wx" | "xw" => f(false, true, false, true, true, true),
            "wx+" | "xw+" => f(true, true, false, true, true, true),
            "a" => f(false, true, true, true, false, false),
            "a+" => f(true, true, true, true, false, false),
            "ax" | "xa" => f(false, true, true, true, false, true),
            "ax+" | "xa+" => f(true, true, true, true, false, true),
            other => {
                return Err(FsError::new(Errno::Einval, other).with_detail("unknown open flags"))
            }
        })
    }
}

/// A file-system backend: nine required methods and one optional one,
/// `utimes`.
///
/// `open` loads the *entire* file into memory and `sync` writes the
/// whole contents back — the paper's standard file utility "loads the
/// entire file into memory and implements sync-on-close semantics".
/// The frontend owns descriptor state; backends only move whole blobs.
pub trait Backend {
    /// Backend name for diagnostics (`"InMemory"`, `"LocalStorage"`...).
    fn name(&self) -> &'static str;

    /// Metadata for `path`.
    fn stat(&self, engine: &Engine, path: &str, cb: FsCallback<Stat>);

    /// Open `path` under `flags`, delivering the full contents (empty
    /// for newly created or truncated files).
    fn open(&self, engine: &Engine, path: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>);

    /// Write the full contents of `path` back to storage (the
    /// sync-on-close flush).
    fn sync(&self, engine: &Engine, path: &str, data: Vec<u8>, cb: FsCallback<()>);

    /// Hook invoked when the last descriptor for `path` closes.
    fn close(&self, engine: &Engine, path: &str, cb: FsCallback<()>);

    /// Rename `from` to `to`.
    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>);

    /// Remove the file at `path`.
    fn unlink(&self, engine: &Engine, path: &str, cb: FsCallback<()>);

    /// Create the directory `path` (parent must exist).
    fn mkdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>);

    /// Remove the empty directory `path`.
    fn rmdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>);

    /// List the names in directory `path`.
    fn readdir(&self, engine: &Engine, path: &str, cb: FsCallback<Vec<String>>);

    // ---- optional operation (default: ENOTSUP) ----

    /// Set timestamps (optional).
    fn utimes(&self, engine: &Engine, path: &str, _mtime_ns: u64, cb: FsCallback<()>) {
        deliver(engine, 1_000, cb, Err(FsError::new(Errno::Enotsup, path)));
    }
}

/// Deliver a result through the event loop after `latency_ns` —
/// the common completion path for every backend.
pub fn deliver<T: 'static>(
    engine: &Engine,
    latency_ns: u64,
    cb: FsCallback<T>,
    result: FsResult<T>,
) {
    engine.complete_async_after(latency_ns, move |e| cb(e, result));
}

/// A shared, cheaply-cloneable backend handle.
pub type SharedBackend = std::rc::Rc<dyn Backend>;

/// The directory-structure index utility (§5.1: "an index that any
/// backend can use to cache directory listings and files").
///
/// Paths are normalized and absolute; the root `/` always exists.
#[derive(Debug, Clone, Default)]
pub struct DirIndex {
    entries: std::collections::BTreeMap<String, FileKind>,
}

impl DirIndex {
    /// An index containing only the root directory.
    pub fn new() -> DirIndex {
        DirIndex::default()
    }

    /// Kind of the entry at `path`, if present (`/` is a directory).
    pub fn kind(&self, path: &str) -> Option<FileKind> {
        if path == "/" {
            return Some(FileKind::Directory);
        }
        self.entries.get(path).copied()
    }

    /// Whether `path` exists.
    pub fn contains(&self, path: &str) -> bool {
        self.kind(path).is_some()
    }

    /// Number of entries (excluding the implicit root).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index holds no entries beyond the root.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn check_parent(&self, path: &str) -> FsResult<()> {
        let parent = crate::path::dirname(path);
        match self.kind(&parent) {
            Some(FileKind::Directory) => Ok(()),
            Some(FileKind::File) => Err(FsError::new(Errno::Enotdir, parent)),
            None => Err(FsError::new(Errno::Enoent, parent)),
        }
    }

    /// Record a file at `path` (parent directory must exist). Replacing
    /// an existing file is allowed; replacing a directory is `EISDIR`.
    pub fn insert_file(&mut self, path: &str) -> FsResult<()> {
        self.check_parent(path)?;
        match self.kind(path) {
            Some(FileKind::Directory) => Err(FsError::new(Errno::Eisdir, path)),
            _ => {
                self.entries.insert(path.to_string(), FileKind::File);
                Ok(())
            }
        }
    }

    /// Record a directory at `path` (parent must exist, path must not).
    pub fn insert_dir(&mut self, path: &str) -> FsResult<()> {
        self.check_parent(path)?;
        if self.contains(path) {
            return Err(FsError::new(Errno::Eexist, path));
        }
        self.entries.insert(path.to_string(), FileKind::Directory);
        Ok(())
    }

    /// Whether directory `path` has any children.
    pub fn has_children(&self, path: &str) -> bool {
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        self.entries
            .range(prefix.clone()..)
            .next()
            .is_some_and(|(k, _)| k.starts_with(&prefix))
    }

    /// Remove the file at `path`.
    pub fn remove_file(&mut self, path: &str) -> FsResult<()> {
        match self.kind(path) {
            None => Err(FsError::new(Errno::Enoent, path)),
            Some(FileKind::Directory) => Err(FsError::new(Errno::Eisdir, path)),
            Some(FileKind::File) => {
                self.entries.remove(path);
                Ok(())
            }
        }
    }

    /// Remove the empty directory at `path`.
    pub fn remove_dir(&mut self, path: &str) -> FsResult<()> {
        match self.kind(path) {
            None => Err(FsError::new(Errno::Enoent, path)),
            Some(FileKind::File) => Err(FsError::new(Errno::Enotdir, path)),
            Some(FileKind::Directory) => {
                if path == "/" {
                    return Err(FsError::new(Errno::Einval, path).with_detail("cannot remove root"));
                }
                if self.has_children(path) {
                    return Err(FsError::new(Errno::Enotempty, path));
                }
                self.entries.remove(path);
                Ok(())
            }
        }
    }

    /// Immediate children names of directory `path`, sorted.
    pub fn list(&self, path: &str) -> FsResult<Vec<String>> {
        match self.kind(path) {
            None => return Err(FsError::new(Errno::Enoent, path)),
            Some(FileKind::File) => return Err(FsError::new(Errno::Enotdir, path)),
            Some(FileKind::Directory) => {}
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        Ok(self
            .entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(k, _)| {
                let rest = &k[prefix.len()..];
                if rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect())
    }

    /// All descendants of directory `path` (any depth), sorted.
    pub fn descendants(&self, path: &str) -> Vec<(String, FileKind)> {
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        self.entries
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Rename an entry and (for directories) its whole subtree inside
    /// the index. Returns the moved `(old, new)` file paths so callers
    /// can move blob contents.
    pub fn rename(&mut self, from: &str, to: &str) -> FsResult<Vec<(String, String)>> {
        let kind = self
            .kind(from)
            .ok_or_else(|| FsError::new(Errno::Enoent, from))?;
        self.check_parent(to)?;
        match (kind, self.kind(to)) {
            (_, Some(FileKind::Directory)) => return Err(FsError::new(Errno::Eisdir, to)),
            (FileKind::Directory, Some(FileKind::File)) => {
                return Err(FsError::new(Errno::Enotdir, to))
            }
            _ => {}
        }
        let mut moved_files = Vec::new();
        match kind {
            FileKind::File => {
                self.entries.remove(from);
                self.entries.insert(to.to_string(), FileKind::File);
                moved_files.push((from.to_string(), to.to_string()));
            }
            FileKind::Directory => {
                let subtree = self.descendants(from);
                self.entries.remove(from);
                self.entries.insert(to.to_string(), FileKind::Directory);
                for (old, k) in subtree {
                    let suffix = &old[from.len()..];
                    let new = format!("{to}{suffix}");
                    self.entries.remove(&old);
                    self.entries.insert(new.clone(), k);
                    if k == FileKind::File {
                        moved_files.push((old, new));
                    }
                }
            }
        }
        Ok(moved_files)
    }

    /// All paths in the index, sorted (used to persist the index).
    pub fn serialize(&self) -> String {
        self.entries
            .iter()
            .map(|(k, v)| {
                let tag = match v {
                    FileKind::File => 'F',
                    FileKind::Directory => 'D',
                };
                format!("{tag}{k}")
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Rebuild an index from [`serialize`](Self::serialize) output.
    pub fn deserialize(s: &str) -> DirIndex {
        let mut idx = DirIndex::new();
        for line in s.lines() {
            if let Some(path) = line.strip_prefix('F') {
                idx.entries.insert(path.to_string(), FileKind::File);
            } else if let Some(path) = line.strip_prefix('D') {
                idx.entries.insert(path.to_string(), FileKind::Directory);
            }
        }
        idx
    }

    /// Build an index from a set of file paths, inserting intermediate
    /// directories (used by the server-backed backend, whose listing
    /// comes from the web server).
    pub fn from_file_paths<'a>(paths: impl IntoIterator<Item = &'a str>) -> DirIndex {
        let mut idx = DirIndex::new();
        for p in paths {
            let norm = crate::path::normalize(p);
            let comps = crate::path::components(&norm);
            let mut cur = String::new();
            for c in &comps[..comps.len().saturating_sub(1)] {
                cur = format!("{cur}/{c}");
                idx.entries
                    .entry(cur.clone())
                    .or_insert(FileKind::Directory);
            }
            if !comps.is_empty() {
                idx.entries.insert(norm, FileKind::File);
            }
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_flags_parse_node_strings() {
        let r = OpenFlags::parse("r").unwrap();
        assert!(r.read && !r.write && !r.create);
        let w = OpenFlags::parse("w").unwrap();
        assert!(!w.read && w.write && w.create && w.truncate);
        let a = OpenFlags::parse("a+").unwrap();
        assert!(a.read && a.write && a.append && a.create && !a.truncate);
        let wx = OpenFlags::parse("wx").unwrap();
        assert!(wx.exclusive);
        assert!(OpenFlags::parse("q").is_err());
    }

    #[test]
    fn index_enforces_parent_existence() {
        let mut idx = DirIndex::new();
        assert!(idx.insert_file("/a/b.txt").is_err()); // /a missing
        idx.insert_dir("/a").unwrap();
        idx.insert_file("/a/b.txt").unwrap();
        assert_eq!(idx.kind("/a/b.txt"), Some(FileKind::File));
    }

    #[test]
    fn index_list_returns_immediate_children_only() {
        let mut idx = DirIndex::new();
        idx.insert_dir("/a").unwrap();
        idx.insert_dir("/a/sub").unwrap();
        idx.insert_file("/a/x.txt").unwrap();
        idx.insert_file("/a/sub/deep.txt").unwrap();
        idx.insert_file("/top.txt").unwrap();
        assert_eq!(idx.list("/a").unwrap(), vec!["sub", "x.txt"]);
        assert_eq!(idx.list("/").unwrap(), vec!["a", "top.txt"]);
        assert!(idx.list("/a/x.txt").is_err());
        assert!(idx.list("/missing").is_err());
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut idx = DirIndex::new();
        idx.insert_dir("/d").unwrap();
        idx.insert_file("/d/f").unwrap();
        assert_eq!(idx.remove_dir("/d").unwrap_err().errno, Errno::Enotempty);
        idx.remove_file("/d/f").unwrap();
        idx.remove_dir("/d").unwrap();
        assert!(!idx.contains("/d"));
    }

    #[test]
    fn root_is_indestructible() {
        let mut idx = DirIndex::new();
        assert!(idx.remove_dir("/").is_err());
        assert!(idx.contains("/"));
    }

    #[test]
    fn index_round_trips_through_serialization() {
        let mut idx = DirIndex::new();
        idx.insert_dir("/lib").unwrap();
        idx.insert_file("/lib/rt.jar").unwrap();
        idx.insert_file("/hello.txt").unwrap();
        let restored = DirIndex::deserialize(&idx.serialize());
        assert_eq!(restored.kind("/lib"), Some(FileKind::Directory));
        assert_eq!(restored.kind("/lib/rt.jar"), Some(FileKind::File));
        assert_eq!(restored.list("/").unwrap(), idx.list("/").unwrap());
    }

    #[test]
    fn from_file_paths_builds_intermediate_dirs() {
        let idx = DirIndex::from_file_paths(["/java/lang/Object.class", "/java/util/List.class"]);
        assert_eq!(idx.kind("/java"), Some(FileKind::Directory));
        assert_eq!(idx.kind("/java/lang"), Some(FileKind::Directory));
        assert_eq!(idx.kind("/java/lang/Object.class"), Some(FileKind::File));
        assert_eq!(idx.list("/java").unwrap(), vec!["lang", "util"]);
    }
}
