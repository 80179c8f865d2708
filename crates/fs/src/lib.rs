//! The Doppio file system (§5.1).
//!
//! Browsers provide no file system — only "a hodgepodge of persistent
//! storage mechanisms with different storage formats, restrictions,
//! compatibility across browsers, and intended use cases". Doppio
//! unifies them behind a Node-style asynchronous `fs` API
//! ([`FileSystem`]) over pluggable [`Backend`]s: one whole-file
//! backend, [`ObjectStoreBackend`](backends::ObjectStoreBackend), over
//! in-memory, localStorage, read-only server files (XHR), Dropbox-style
//! cloud or replicated storage, and a Unix-style
//! [`MountableFs`](backends::MountableFs) that composes them into one
//! tree.
//!
//! A backend implements just **nine methods**; the frontend supplies
//! argument normalization, the descriptor table (descriptors are
//! objects), the redundant convenience API, and NFS-style
//! *sync-on-close* files that load fully into memory at `open`.
//!
//! # Example
//!
//! ```
//! use doppio_jsengine::{Browser, Engine};
//! use doppio_fs::{backends, FileSystem};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let engine = Engine::new(Browser::Chrome);
//! let fs = FileSystem::new(&engine, backends::in_memory(&engine));
//!
//! let out = Rc::new(RefCell::new(None));
//! let got = out.clone();
//! fs.write_file("/hello.txt", b"hi".to_vec(), move |_, r| {
//!     r.unwrap();
//! });
//! engine.run_until_idle();
//! fs.read_file("/hello.txt", move |_, r| {
//!     *got.borrow_mut() = Some(r.unwrap());
//! });
//! engine.run_until_idle();
//! assert_eq!(out.borrow().as_deref(), Some(&b"hi"[..]));
//! ```

pub mod api;
pub mod backend;
pub mod backends;
pub mod error;
pub mod namespaces;
pub mod path;

pub use api::{Fd, FileSystem};
pub use backend::{Backend, DirIndex, FileKind, FsCallback, OpenFlags, SharedBackend, Stat};
pub use error::{Errno, FsError, FsResult};
pub use namespaces::FsNamespaces;

/// Canonical label for a guest thread blocked on a file-system
/// operation, used as the `Async` resource name in the runtime's
/// wait-for graph (deadlock blame says *which* fs call a thread is
/// stuck in, e.g. `fs.read(/data/log)`).
pub fn wait_label(op: &str, path: &str) -> String {
    format!("fs.{op}({path})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::{Browser, Engine};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    /// Run an async fs op to completion and return its result.
    macro_rules! wait {
        ($engine:expr, |$cb:ident| $issue:expr) => {{
            let slot = Rc::new(RefCell::new(None));
            let store = slot.clone();
            let $cb = move |_e: &Engine, r| {
                *store.borrow_mut() = Some(r);
            };
            $issue;
            $engine.run_until_idle();
            let result = slot.borrow_mut().take();
            result.expect("callback fired")
        }};
    }

    fn mem_fs() -> (Engine, FileSystem) {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::in_memory(&engine));
        (engine, fs)
    }

    #[test]
    fn full_file_lifecycle_on_memory_backend() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.mkdir("/docs", cb)).unwrap();
        wait!(engine, |cb| fs.write_file(
            "/docs/a.txt",
            b"alpha".to_vec(),
            cb
        ))
        .unwrap();
        let data = wait!(engine, |cb| fs.read_file("/docs/a.txt", cb)).unwrap();
        assert_eq!(data, b"alpha");
        let st = wait!(engine, |cb| fs.stat("/docs/a.txt", cb)).unwrap();
        assert!(st.is_file());
        assert_eq!(st.size, 5);
        let names = wait!(engine, |cb| fs.readdir("/docs", cb)).unwrap();
        assert_eq!(names, vec!["a.txt"]);
        wait!(engine, |cb| fs.rename("/docs/a.txt", "/docs/b.txt", cb)).unwrap();
        assert!(wait!(engine, |cb| fs.read_file("/docs/a.txt", cb)).is_err());
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/docs/b.txt", cb)).unwrap(),
            b"alpha"
        );
        wait!(engine, |cb| fs.unlink("/docs/b.txt", cb)).unwrap();
        wait!(engine, |cb| fs.rmdir("/docs", cb)).unwrap();
        let err = wait!(engine, |cb| fs.stat("/docs", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enoent);
    }

    #[test]
    fn sync_on_close_defers_visibility() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.write_file("/f", b"old".to_vec(), cb)).unwrap();
        let fd = wait!(engine, |cb| fs.open("/f", "r+", cb)).unwrap();
        wait!(engine, |cb| fs.write(&fd, b"new", cb)).unwrap();
        // Not yet flushed: a fresh read still sees the old contents.
        assert_eq!(wait!(engine, |cb| fs.read_file("/f", cb)).unwrap(), b"old");
        wait!(engine, |cb| fs.close(&fd, cb)).unwrap();
        assert_eq!(wait!(engine, |cb| fs.read_file("/f", cb)).unwrap(), b"new");
        assert_eq!(engine.metrics().get("fs.flushes"), 2); // write_file + our close
    }

    #[test]
    fn open_flags_are_enforced() {
        let (engine, fs) = mem_fs();
        // "r" on a missing file.
        let err = wait!(engine, |cb| fs.open("/missing", "r", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enoent);
        // "wx" on an existing file.
        wait!(engine, |cb| fs.write_file("/f", b"x".to_vec(), cb)).unwrap();
        let err = wait!(engine, |cb| fs.open("/f", "wx", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Eexist);
        // Writing a read-only descriptor.
        let fd = wait!(engine, |cb| fs.open("/f", "r", cb)).unwrap();
        let err = wait!(engine, |cb| fs.write(&fd, b"y", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Eacces);
        // Reading a write-only descriptor.
        let fd = wait!(engine, |cb| fs.open("/f", "w", cb)).unwrap();
        let err = wait!(engine, |cb| fs.read(&fd, 1, cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Eacces);
        // Bad flag string.
        let err = wait!(engine, |cb| fs.open("/f", "zz", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Einval);
        // Closed descriptor.
        let fd = wait!(engine, |cb| fs.open("/f", "r", cb)).unwrap();
        wait!(engine, |cb| fs.close(&fd, cb)).unwrap();
        let err = wait!(engine, |cb| fs.read(&fd, 1, cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Ebadf);
    }

    #[test]
    fn append_mode_appends() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.write_file("/log", b"one\n".to_vec(), cb)).unwrap();
        wait!(engine, |cb| fs.append_file("/log", b"two\n".to_vec(), cb)).unwrap();
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/log", cb)).unwrap(),
            b"one\ntwo\n"
        );
    }

    #[test]
    fn sequential_reads_advance_position() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.write_file("/f", b"abcdef".to_vec(), cb)).unwrap();
        let fd = wait!(engine, |cb| fs.open("/f", "r", cb)).unwrap();
        assert_eq!(wait!(engine, |cb| fs.read(&fd, 2, cb)).unwrap(), b"ab");
        assert_eq!(wait!(engine, |cb| fs.read(&fd, 2, cb)).unwrap(), b"cd");
        wait!(engine, |cb| fs.seek(&fd, 1, cb)).unwrap();
        assert_eq!(wait!(engine, |cb| fs.read(&fd, 2, cb)).unwrap(), b"bc");
        assert_eq!(wait!(engine, |cb| fs.read(&fd, 100, cb)).unwrap(), b"def");
        assert_eq!(wait!(engine, |cb| fs.read(&fd, 1, cb)).unwrap(), b"");
    }

    #[test]
    fn cwd_resolution_follows_chdir() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.mkdir("/home", cb)).unwrap();
        wait!(engine, |cb| fs.mkdir("/home/user", cb)).unwrap();
        fs.chdir("/home/user");
        assert_eq!(fs.cwd(), "/home/user");
        wait!(engine, |cb| fs.write_file("notes.txt", b"n".to_vec(), cb)).unwrap();
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/home/user/notes.txt", cb)).unwrap(),
            b"n"
        );
        fs.chdir("..");
        assert_eq!(fs.cwd(), "/home");
        assert_eq!(
            wait!(engine, |cb| fs.read_file("user/notes.txt", cb)).unwrap(),
            b"n"
        );
    }

    #[test]
    fn local_storage_backend_persists_across_instances() {
        let engine = Engine::new(Browser::Chrome);
        {
            let fs = FileSystem::new(&engine, backends::local_storage(&engine));
            wait!(engine, |cb| fs.mkdir("/save", cb)).unwrap();
            wait!(engine, |cb| fs.write_file("/save/slot0", vec![1, 2, 3], cb)).unwrap();
        }
        // A brand-new FileSystem + backend over the same engine storage
        // sees the data (it survived in localStorage).
        let fs2 = FileSystem::new(&engine, backends::local_storage(&engine));
        assert_eq!(
            wait!(engine, |cb| fs2.read_file("/save/slot0", cb)).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn local_storage_quota_surfaces_as_enospc() {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::local_storage(&engine));
        // 6 MB of data packs to ~6 MB of UTF-16 units > 5 MB quota.
        let big = vec![0xAAu8; 6 * 1024 * 1024];
        let err = wait!(engine, |cb| fs.write_file("/big", big, cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enospc);
    }

    #[test]
    fn binary_string_packing_doubles_local_storage_capacity() {
        // 3 MB of binary data: packed (Chrome) it needs ~3 MB of UTF-16
        // storage and fits; unpacked (IE10 validates strings) it needs
        // ~6 MB and exceeds the 5 MB quota. §5.1's capacity claim.
        let payload = vec![0x42u8; 3 * 1024 * 1024];
        let chrome = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&chrome, backends::local_storage(&chrome));
        wait!(chrome, |cb| fs.write_file("/blob", payload.clone(), cb)).unwrap();

        let ie10 = Engine::new(Browser::Ie10);
        let fs = FileSystem::new(&ie10, backends::local_storage(&ie10));
        let err = wait!(ie10, |cb| fs.write_file("/blob", payload, cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enospc);
    }

    fn server_files() -> BTreeMap<String, Vec<u8>> {
        let mut m = BTreeMap::new();
        m.insert("/classes/Main.class".to_string(), vec![0xCA, 0xFE]);
        m.insert("/classes/util/List.class".to_string(), vec![0xBA, 0xBE]);
        m.insert("/index.html".to_string(), b"<html>".to_vec());
        m
    }

    #[test]
    fn xhr_backend_serves_reads_and_rejects_writes() {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::xhr(&engine, server_files()));
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/classes/Main.class", cb)).unwrap(),
            vec![0xCA, 0xFE]
        );
        let names = wait!(engine, |cb| fs.readdir("/classes", cb)).unwrap();
        assert_eq!(names, vec!["Main.class", "util"]);
        let err = wait!(engine, |cb| fs.write_file(
            "/classes/New.class",
            vec![1],
            cb
        ))
        .unwrap_err();
        assert_eq!(err.errno, Errno::Erofs);
        let err = wait!(engine, |cb| fs.unlink("/index.html", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Erofs);
    }

    #[test]
    fn xhr_downloads_cost_network_latency() {
        let engine = Engine::new(Browser::Chrome);
        let fs = FileSystem::new(&engine, backends::xhr(&engine, server_files()));
        let t0 = engine.now_ns();
        wait!(engine, |cb| fs.read_file("/index.html", cb)).unwrap();
        // At least one ~3 ms request round trip.
        assert!(engine.now_ns() - t0 >= 3_000_000);
    }

    #[test]
    fn dropbox_is_writable_but_slow() {
        let engine = Engine::new(Browser::Chrome);
        let mem = FileSystem::new(&engine, backends::in_memory(&engine));
        let cloud = FileSystem::new(&engine, backends::dropbox(&engine));

        let t0 = engine.now_ns();
        wait!(engine, |cb| mem.write_file("/f", b"x".to_vec(), cb)).unwrap();
        let mem_cost = engine.now_ns() - t0;

        let t1 = engine.now_ns();
        wait!(engine, |cb| cloud.write_file("/f", b"x".to_vec(), cb)).unwrap();
        let cloud_cost = engine.now_ns() - t1;

        assert_eq!(wait!(engine, |cb| cloud.read_file("/f", cb)).unwrap(), b"x");
        assert!(
            cloud_cost > 10 * mem_cost,
            "cloud {cloud_cost} mem {mem_cost}"
        );
    }

    #[test]
    fn mountable_fs_routes_and_merges() {
        let engine = Engine::new(Browser::Chrome);
        let mnt = backends::mountable(backends::in_memory(&engine));
        mnt.mount("/sys", backends::xhr(&engine, server_files()))
            .unwrap();
        mnt.mount("/tmp", backends::in_memory(&engine)).unwrap();
        let fs = FileSystem::new(&engine, mnt.clone());

        // Root readdir shows the mount points.
        wait!(engine, |cb| fs.write_file("/root.txt", b"r".to_vec(), cb)).unwrap();
        let names = wait!(engine, |cb| fs.readdir("/", cb)).unwrap();
        assert_eq!(names, vec!["root.txt", "sys", "tmp"]);

        // Reads route into the server mount.
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/sys/classes/Main.class", cb)).unwrap(),
            vec![0xCA, 0xFE]
        );
        // Writes route into /tmp's memory backend.
        wait!(engine, |cb| fs.write_file(
            "/tmp/scratch",
            b"s".to_vec(),
            cb
        ))
        .unwrap();
        // The server mount is still read-only.
        let err = wait!(engine, |cb| fs.write_file("/sys/x", vec![1], cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Erofs);
        // Renaming across mounts is EXDEV.
        let err = wait!(engine, |cb| fs.rename("/tmp/scratch", "/elsewhere", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Exdev);
        // Within one mount it works.
        wait!(engine, |cb| fs.rename("/tmp/scratch", "/tmp/kept", cb)).unwrap();
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/tmp/kept", cb)).unwrap(),
            b"s"
        );
        // Stat of a mount point is a directory.
        assert!(wait!(engine, |cb| fs.stat("/tmp", cb)).unwrap().is_dir());
        // Unmounting removes the subtree.
        mnt.unmount("/tmp").unwrap();
        let err = wait!(engine, |cb| fs.stat("/tmp/kept", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enoent);
    }

    #[test]
    fn directory_rename_moves_subtree() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.mkdir("/a", cb)).unwrap();
        wait!(engine, |cb| fs.mkdir("/a/sub", cb)).unwrap();
        wait!(engine, |cb| fs.write_file("/a/sub/f", b"deep".to_vec(), cb)).unwrap();
        wait!(engine, |cb| fs.rename("/a", "/b", cb)).unwrap();
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/b/sub/f", cb)).unwrap(),
            b"deep"
        );
        assert!(wait!(engine, |cb| fs.stat("/a", cb)).is_err());
    }

    #[test]
    fn stats_count_traffic() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.write_file("/f", vec![0u8; 100], cb)).unwrap();
        wait!(engine, |cb| fs.read_file("/f", cb)).unwrap();
        let m = engine.metrics();
        assert_eq!(m.get("fs.bytes_written"), 100);
        assert_eq!(m.get("fs.bytes_read"), 100);
        assert_eq!(m.get("fs.opens"), 2);
        assert_eq!(m.get("fs.closes"), 2);
        assert!(m.get("fs.ops") >= 6);
    }

    #[test]
    fn everything_is_asynchronous() {
        // No callback runs before the event loop turns.
        let (engine, fs) = mem_fs();
        let ran = Rc::new(RefCell::new(false));
        let r = ran.clone();
        fs.write_file("/f", b"x".to_vec(), move |_, _| *r.borrow_mut() = true);
        assert!(!*ran.borrow(), "fs must be async-only");
        engine.run_until_idle();
        assert!(*ran.borrow());
    }

    #[test]
    fn retry_policy_recovers_from_a_transient_eio() {
        use doppio_faults::{FaultConfig, FaultPlan};
        let engine = Engine::new(Browser::Chrome);
        // Every op fails with EIO until the single-fault budget runs out.
        let plan = FaultPlan::new(
            11,
            FaultConfig {
                fs_eio_p: 1.0,
                max_fs_faults: 1,
                ..FaultConfig::default()
            },
        );
        let fs = FileSystem::new(
            &engine,
            backends::faulty(backends::in_memory(&engine), plan.clone()),
        );
        fs.set_retry(true);
        wait!(engine, |cb| fs.write_file("/f", b"persisted".to_vec(), cb)).unwrap();
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/f", cb)).unwrap(),
            b"persisted"
        );
        assert_eq!(plan.fs_injected(), 1);
        assert!(
            engine.metrics().get("fs.retries") >= 1,
            "a retry absorbed the fault"
        );
    }

    #[test]
    fn retry_policy_gives_up_on_permanent_errors() {
        let (engine, fs) = mem_fs();
        fs.set_retry(true);
        let err = wait!(engine, |cb| fs.read_file("/nope", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Enoent);
        assert_eq!(
            engine.metrics().get("fs.retries"),
            0,
            "ENOENT must not be retried"
        );
    }

    #[test]
    fn mount_fallthrough_degrades_reads_to_the_root_backend() {
        use doppio_faults::{FaultConfig, FaultPlan};
        let engine = Engine::new(Browser::Chrome);
        let root = backends::in_memory(&engine);
        // Seed the root backend with a shadowed copy of the data.
        {
            let fs = FileSystem::new(&engine, root.clone());
            wait!(engine, |cb| fs.mkdir("/data", cb)).unwrap();
            wait!(engine, |cb| fs.write_file(
                "/data/f",
                b"backup".to_vec(),
                cb
            ))
            .unwrap();
        }
        // Mount a permanently failing backend over /data.
        let broken = backends::faulty(
            backends::in_memory(&engine),
            FaultPlan::new(
                5,
                FaultConfig {
                    fs_eio_p: 1.0,
                    ..FaultConfig::default()
                },
            ),
        );
        let mnt = backends::mountable(root);
        mnt.mount("/data", broken).unwrap();
        let fs = FileSystem::new(&engine, mnt.clone());

        // Without fallthrough the mount's EIO is final.
        let err = wait!(engine, |cb| fs.read_file("/data/f", cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Eio);

        // With fallthrough, reads degrade to the root backend's copy.
        mnt.set_fallthrough(true);
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/data/f", cb)).unwrap(),
            b"backup"
        );
        assert!(wait!(engine, |cb| fs.stat("/data/f", cb))
            .unwrap()
            .is_file());
        // Writes must not fall through: the mount stays authoritative.
        let err = wait!(engine, |cb| fs.write_file("/data/g", vec![1], cb)).unwrap_err();
        assert_eq!(err.errno, Errno::Eio);
    }

    #[test]
    fn ftruncate_shrinks_and_zero_extends() {
        let (engine, fs) = mem_fs();
        wait!(engine, |cb| fs.write_file("/f", b"abcdef".to_vec(), cb)).unwrap();
        let fd = wait!(engine, |cb| fs.open("/f", "r+", cb)).unwrap();
        wait!(engine, |cb| fs.ftruncate(&fd, 3, cb)).unwrap();
        wait!(engine, |cb| fs.ftruncate(&fd, 5, cb)).unwrap();
        wait!(engine, |cb| fs.close(&fd, cb)).unwrap();
        assert_eq!(
            wait!(engine, |cb| fs.read_file("/f", cb)).unwrap(),
            b"abc\0\0"
        );
    }
}
