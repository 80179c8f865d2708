//! The paper's four blob stores.
//!
//! §5.1's utility classes make writing a backend cheap: the directory
//! index and the load-whole-file/sync-on-close file model are shared
//! by [`ObjectStoreBackend`](super::ObjectStoreBackend), so each
//! storage mechanism below only moves whole blobs, as an
//! [`ObjectStoreClient`] that answers every call before it returns.
//! The paper's five backends map to:
//!
//! * [`MemoryStore`] — "temporary in-memory storage"
//! * [`LocalStorageStore`] — browser-local persistent storage, going
//!   through the Buffer binary-string bridge and the localStorage
//!   quota
//! * [`XhrStore`] — "read-only access to files served by the web
//!   server", with download latency and bandwidth
//! * [`DropboxStore`] — "access to Dropbox cloud storage", with
//!   round-trip latency
//!
//! (The fifth, the mountable file system, composes backends and lives
//! in [`mount`](crate::backends::mount).)

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use doppio_buffer::{Buffer, Encoding};
use doppio_jsengine::storage::{KvStore, SyncMechanism};
use doppio_jsengine::{Cost, Engine, EngineError, EngineResult};

use super::ObjectStoreClient;
use crate::backend::{DirIndex, FsCallback};
use crate::error::{Errno, FsError, FsResult};

/// Charge landing a fetched blob of `len` bytes in a read buffer. The
/// buffer is a typed array (§7.1: "DOPPIO's file system implementation
/// makes heavy use of typed arrays"); on Safari the matching free is
/// ignored and the buffer stays resident — the leak behind javap's
/// pathology. Browsers without typed arrays use a JS array.
fn charge_read_buffer(engine: &Engine, len: usize) {
    if engine.profile().has_typed_arrays {
        engine.typed_array_alloc(len);
        engine.typed_array_free(len);
        engine.charge_n(Cost::TypedArrayByte, len as u64);
    } else {
        engine.charge_n(Cost::JsArrayByte, len as u64);
    }
}

/// Temporary in-memory storage: fast, lost on reload. Its directory
/// index lives only in the backend.
#[derive(Debug, Default)]
pub struct MemoryStore {
    blobs: RefCell<HashMap<String, Vec<u8>>>,
}

impl MemoryStore {
    /// An empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }
}

impl ObjectStoreClient for MemoryStore {
    fn name(&self) -> &'static str {
        "InMemory"
    }

    fn op_latency_ns(&self) -> u64 {
        1_200
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = self.blobs.borrow().get(key).cloned();
        if let Some(d) = &data {
            charge_read_buffer(engine, d.len());
        }
        cb(engine, Ok(data));
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        engine.charge_n(Cost::TypedArrayByte, data.len() as u64);
        self.blobs.borrow_mut().insert(key.to_string(), data);
        cb(engine, Ok(()));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        self.blobs.borrow_mut().remove(key);
        cb(engine, Ok(()));
    }

    fn get_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        cb(engine, Ok(None));
    }

    fn put_index(&self, engine: &Engine, _index: &DirIndex, cb: FsCallback<()>) {
        cb(engine, Ok(()));
    }
}

/// Browser-local persistent storage over `localStorage`: binary data
/// crosses the Buffer binary-string bridge, and the 5 MB quota
/// surfaces as `ENOSPC`. The directory index is the plain string item
/// `doppio-fs-index`.
#[derive(Debug, Default)]
pub struct LocalStorageStore {
    _priv: (),
}

impl LocalStorageStore {
    /// A store over the engine's localStorage.
    pub fn new() -> LocalStorageStore {
        LocalStorageStore::default()
    }

    fn key(path: &str) -> String {
        format!("doppio-file:{path}")
    }

    /// Run `f` on the engine's localStorage; a quota error becomes
    /// `ENOSPC` and any other error `EIO`, both reported against `key`.
    fn with_local_storage<R>(
        engine: &Engine,
        key: &str,
        f: impl FnOnce(&mut KvStore, &'static str) -> EngineResult<R>,
    ) -> FsResult<R> {
        let browser = engine.profile().browser.name();
        engine
            .with_storage(|s, _| f(s.sync_store(SyncMechanism::LocalStorage), browser))
            .map_err(|e| match e {
                EngineError::QuotaExceeded { .. } => {
                    FsError::new(Errno::Enospc, key).with_detail(e.to_string())
                }
                other => FsError::new(Errno::Eio, key).with_detail(other.to_string()),
            })
    }
}

const LS_INDEX_KEY: &str = "doppio-fs-index";

impl ObjectStoreClient for LocalStorageStore {
    fn name(&self) -> &'static str {
        "LocalStorage"
    }

    fn op_latency_ns(&self) -> u64 {
        25_000
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = Self::with_local_storage(engine, key, |ls, browser| {
            ls.get_item_js(browser, &Self::key(key))
        })
        .and_then(|js| {
            js.map(|js| {
                Buffer::from_js_string(engine, Encoding::BinaryString, &js)
                    .map(|buf| buf.as_slice().to_vec())
                    .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))
            })
            .transpose()
        });
        cb(engine, data);
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        let stored = Buffer::from_slice(engine, &data)
            .to_js_string_full(Encoding::BinaryString)
            .map_err(|e| FsError::new(Errno::Eio, key).with_detail(e.to_string()))
            .and_then(|js| {
                Self::with_local_storage(engine, key, |ls, browser| {
                    ls.set_item_js(browser, &Self::key(key), js)
                })
            });
        cb(engine, stored);
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        let removed = Self::with_local_storage(engine, key, |ls, browser| {
            ls.remove_item(browser, &Self::key(key))
        });
        cb(engine, removed);
    }

    fn get_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        let index = Self::with_local_storage(engine, LS_INDEX_KEY, |ls, browser| {
            ls.get_item(browser, LS_INDEX_KEY)
        });
        cb(engine, index.map(|s| s.map(|s| DirIndex::deserialize(&s))));
    }

    fn put_index(&self, engine: &Engine, index: &DirIndex, cb: FsCallback<()>) {
        let stored = Self::with_local_storage(engine, LS_INDEX_KEY, |ls, browser| {
            ls.set_item(browser, LS_INDEX_KEY, &index.serialize())
        });
        cb(engine, stored);
    }
}

/// Read-only access to files served by the web server, downloaded on
/// demand (DoppioJVM's class loader runs on this: "the file system
/// backend launches an asynchronous download request for the particular
/// file", §6.4), with ~3 ms request RTT and ~30 MB/s transfer. The
/// server's listing is the directory index.
#[derive(Debug)]
pub struct XhrStore {
    files: BTreeMap<String, Vec<u8>>,
}

impl XhrStore {
    /// A server store over `files`.
    pub fn new(files: BTreeMap<String, Vec<u8>>) -> XhrStore {
        XhrStore { files }
    }
}

impl ObjectStoreClient for XhrStore {
    fn name(&self) -> &'static str {
        "XmlHttpRequest"
    }

    fn is_read_only(&self) -> bool {
        true
    }

    fn op_latency_ns(&self) -> u64 {
        3_000_000
    }

    fn ns_per_kib(&self) -> u64 {
        32_000
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = self.files.get(key).cloned();
        if let Some(d) = &data {
            // The downloaded body lands in a read buffer, visible to
            // the Safari leak.
            charge_read_buffer(engine, d.len());
        }
        cb(engine, Ok(data));
    }

    fn put(&self, engine: &Engine, key: &str, _data: Vec<u8>, cb: FsCallback<()>) {
        cb(engine, Err(FsError::new(Errno::Erofs, key)));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        cb(engine, Err(FsError::new(Errno::Erofs, key)));
    }

    fn get_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        let listing = DirIndex::from_file_paths(self.files.keys().map(String::as_str));
        cb(engine, Ok(Some(listing)));
    }
}

/// Dropbox cloud storage: read-write, but every operation pays a cloud
/// round trip (~40 ms) and ~8 MB/s transfer. The directory index is the
/// object at [`INDEX_KEY`](super::replicated::INDEX_KEY).
#[derive(Debug, Default)]
pub struct DropboxStore {
    blobs: RefCell<HashMap<String, Vec<u8>>>,
}

impl DropboxStore {
    /// An empty cloud store.
    pub fn new() -> DropboxStore {
        DropboxStore::default()
    }
}

impl ObjectStoreClient for DropboxStore {
    fn name(&self) -> &'static str {
        "Dropbox"
    }

    fn op_latency_ns(&self) -> u64 {
        40_000_000
    }

    fn ns_per_kib(&self) -> u64 {
        128_000
    }

    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
        let data = self.blobs.borrow().get(key).cloned();
        cb(engine, Ok(data));
    }

    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
        self.blobs.borrow_mut().insert(key.to_string(), data);
        cb(engine, Ok(()));
    }

    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
        self.blobs.borrow_mut().remove(key);
        cb(engine, Ok(()));
    }
}
