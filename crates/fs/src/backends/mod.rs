//! The concrete file-system backends (§5.1, Figure 2).
//!
//! One whole-file backend, [`ObjectStoreBackend`], serves five stores:
//! the paper's memory, localStorage, XHR and Dropbox stores
//! ([`blob`]), and any asynchronous [`ObjectStoreClient`], such as the
//! replicated cluster client in `doppio-storage`. [`MountableFs`] and
//! [`FaultyBackend`] decorate backends.

pub mod blob;
pub mod faulty;
pub mod mount;
pub mod replicated;

pub use blob::{DropboxStore, LocalStorageStore, MemoryStore, XhrStore};
pub use faulty::FaultyBackend;
pub use mount::MountableFs;
pub use replicated::{ObjectStoreBackend, ObjectStoreClient};

use doppio_jsengine::Engine;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::backend::SharedBackend;

/// A backend over one of the paper's stores, its directory tree loaded
/// from wherever the store keeps it. These stores answer inline, so the
/// tree is in place when this returns.
fn over(engine: &Engine, store: impl ObjectStoreClient + 'static) -> SharedBackend {
    let backend = ObjectStoreBackend::new(store);
    backend.hydrate(engine, Box::new(|_, _| {}));
    Rc::new(backend)
}

/// An in-memory backend (temporary storage, like `/tmp`).
pub fn in_memory(engine: &Engine) -> SharedBackend {
    over(engine, MemoryStore::new())
}

/// A backend persisted in the browser's `localStorage` (5 MB quota,
/// binary data packed through the Buffer binary-string bridge).
pub fn local_storage(engine: &Engine) -> SharedBackend {
    over(engine, LocalStorageStore::new())
}

/// A read-only backend over files served by the web server, downloaded
/// on demand.
pub fn xhr(engine: &Engine, files: BTreeMap<String, Vec<u8>>) -> SharedBackend {
    over(engine, XhrStore::new(files))
}

/// A Dropbox-style cloud backend (read-write, high latency).
pub fn dropbox(engine: &Engine) -> SharedBackend {
    over(engine, DropboxStore::new())
}

/// A mountable file system over `root`.
pub fn mountable(root: SharedBackend) -> Rc<MountableFs> {
    Rc::new(MountableFs::new(root))
}

/// Wrap `inner` in a fault-injecting decorator drawing from `plan`.
pub fn faulty(inner: SharedBackend, plan: doppio_faults::FaultPlan) -> SharedBackend {
    Rc::new(FaultyBackend::new(inner, plan))
}

/// A backend over any asynchronous [`ObjectStoreClient`] — the seam
/// the replicated store in `doppio-storage` plugs into.
pub fn replicated<C: ObjectStoreClient + 'static>(client: C) -> SharedBackend {
    Rc::new(ObjectStoreBackend::new(client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FsCallback, OpenFlags};
    use crate::error::{Errno, FsResult};
    use doppio_jsengine::Browser;
    use std::cell::RefCell;

    fn wait<T: 'static>(engine: &Engine, run: impl FnOnce(FsCallback<T>)) -> FsResult<T> {
        let slot = Rc::new(RefCell::new(None));
        let s = slot.clone();
        run(Box::new(move |_, r| *s.borrow_mut() = Some(r)));
        engine.run_until_idle();
        let out = slot.borrow_mut().take().expect("operation completed");
        out
    }

    #[test]
    fn a_sync_refused_for_quota_leaves_the_recorded_size_alone() {
        let engine = Engine::new(Browser::Chrome);
        let be = local_storage(&engine);
        let flags = |f| OpenFlags::parse(f).unwrap();
        wait(&engine, |cb| be.open(&engine, "/big", flags("w"), cb)).unwrap();
        let err = wait(&engine, |cb| be.sync(&engine, "/big", vec![7; 6 << 20], cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enospc);
        let size = wait(&engine, |cb| be.stat(&engine, "/big", cb))
            .unwrap()
            .size;
        let data = wait(&engine, |cb| be.open(&engine, "/big", flags("r"), cb)).unwrap();
        assert_eq!(size, data.len());
        assert_eq!(size, 0);
    }

    #[test]
    fn renaming_a_directory_of_ten_thousand_files_completes() {
        let engine = Engine::new(Browser::Chrome);
        let be = in_memory(&engine);
        wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap();
        for i in 0..10_000 {
            let path = format!("/d/f{i}");
            wait(&engine, |cb| be.sync(&engine, &path, vec![1], cb)).unwrap();
        }
        wait(&engine, |cb| be.rename(&engine, "/d", "/e", cb)).unwrap();
        assert_eq!(
            wait(&engine, |cb| be.readdir(&engine, "/e", cb))
                .unwrap()
                .len(),
            10_000
        );
        let err = wait(&engine, |cb| be.readdir(&engine, "/d", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enoent);
    }
}
