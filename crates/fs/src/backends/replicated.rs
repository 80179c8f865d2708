//! The whole-file backend over any object store (§5.1).
//!
//! §5.1's utility classes make a backend cheap to write: the directory
//! index and the load-whole-file/sync-on-close file model are shared,
//! and a storage mechanism only moves whole blobs. [`ObjectStoreBackend`]
//! is that shared part, written once: the [`DirIndex`], the size and
//! mtime caches, and the errno surface. A store plugs in as an
//! [`ObjectStoreClient`]:
//! * the paper's four stores in [`blob`](super::blob) (memory,
//!   localStorage, XHR, Dropbox), which answer every call before it
//!   returns;
//! * `doppio-storage`'s client of a primary/backup replicated cluster,
//!   whose calls complete turns later, through the network.
//!
//! One completion rule serves both kinds of store. An op whose store
//! calls were all answered inline completes with one [`deliver`] after
//! the store's latency for the op's payload bytes. An op that waited on
//! the store completes in the store's callback. An op's store calls run
//! as a chain of steps; steps answered inline run in a loop, so a rename
//! of a large directory does not grow the stack.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use doppio_jsengine::Engine;

use crate::backend::{deliver, Backend, DirIndex, FileKind, FsCallback, OpenFlags, Stat};
use crate::error::{Errno, FsError, FsResult};

/// Key under which stores that keep the directory index as an object
/// persist it (NUL-prefixed so it can never collide with a path).
pub const INDEX_KEY: &str = "\u{0}index";

/// A whole-blob object store: all a storage mechanism has to provide.
///
/// Every call completes through its callback, either before it returns
/// (the paper's stores) or later (a remote store).
pub trait ObjectStoreClient {
    /// Store name for diagnostics.
    fn name(&self) -> &'static str;

    /// Whether every write fails with `EROFS`. The backend checks this
    /// before it changes anything.
    fn is_read_only(&self) -> bool {
        false
    }

    /// Fixed virtual latency of an op whose store calls were all
    /// answered inline (and of an op that needs no store call).
    fn op_latency_ns(&self) -> u64;

    /// Additional virtual latency per KiB of such an op's payload.
    fn ns_per_kib(&self) -> u64 {
        0
    }

    /// Fetch the blob at `key` (`Ok(None)` if absent).
    fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>);

    /// Store the blob at `key`.
    fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>);

    /// Remove the blob at `key` (missing is fine).
    fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>);

    /// Fetch the persisted directory index (`Ok(None)` if there is
    /// none). By default it is the object at [`INDEX_KEY`].
    fn get_index(&self, engine: &Engine, cb: FsCallback<Option<DirIndex>>) {
        self.get(
            engine,
            INDEX_KEY,
            Box::new(move |e, r| {
                let index =
                    r.map(|b| b.map(|b| DirIndex::deserialize(&String::from_utf8_lossy(&b))));
                cb(e, index)
            }),
        );
    }

    /// Persist the directory index. By default it is the object at
    /// [`INDEX_KEY`].
    fn put_index(&self, engine: &Engine, index: &DirIndex, cb: FsCallback<()>) {
        self.put(engine, INDEX_KEY, index.serialize().into_bytes(), cb);
    }
}

struct State {
    index: DirIndex,
    sizes: HashMap<String, usize>,
    mtimes: HashMap<String, u64>,
}

struct Inner<C> {
    client: C,
    state: RefCell<State>,
}

impl<C: ObjectStoreClient> Inner<C> {
    /// The store's latency for an op answered inline that moved `bytes`.
    fn latency(&self, bytes: usize) -> u64 {
        self.client.op_latency_ns() + self.client.ns_per_kib() * (bytes as u64).div_ceil(1024)
    }
}

/// A full [`Backend`] over any [`ObjectStoreClient`].
pub struct ObjectStoreBackend<C: ObjectStoreClient + 'static> {
    inner: Rc<Inner<C>>,
}

/// What an op's result carries back from the store; its bytes count
/// toward the latency of an inline answer.
trait Payload {
    fn bytes(&self) -> usize {
        0
    }
}

impl Payload for () {}
impl Payload for Stat {}
impl Payload for Vec<u8> {
    fn bytes(&self) -> usize {
        self.len()
    }
}

/// One store call in an op's chain (see [`run_steps`]).
type Step = Box<dyn FnOnce(&Engine, FsCallback<()>)>;

/// Where a step's answer goes: the loop in [`run_steps`] picks it up if
/// it came before the step returned; otherwise the step is waiting, and
/// the answer resumes the rest of the chain.
enum Answer {
    Pending,
    Ready(FsResult<()>),
    Resume(FsCallback<()>),
}

/// Run `steps` strictly in order, stopping at the first error, then
/// call `done`.
fn run_steps(engine: &Engine, mut steps: VecDeque<Step>, done: FsCallback<()>) {
    while let Some(step) = steps.pop_front() {
        let answer = Rc::new(RefCell::new(Answer::Pending));
        let slot = answer.clone();
        step(
            engine,
            Box::new(move |e, r| {
                let prev = std::mem::replace(&mut *slot.borrow_mut(), Answer::Pending);
                match prev {
                    Answer::Resume(rest) => rest(e, r),
                    _ => *slot.borrow_mut() = Answer::Ready(r),
                }
            }),
        );
        let answered = std::mem::replace(&mut *answer.borrow_mut(), Answer::Pending);
        match answered {
            Answer::Ready(Ok(())) => {}
            Answer::Ready(Err(err)) => return done(engine, Err(err)),
            _ => {
                *answer.borrow_mut() = Answer::Resume(Box::new(move |e, r| match r {
                    Ok(()) => run_steps(e, steps, done),
                    Err(err) => done(e, Err(err)),
                }));
                return;
            }
        }
    }
    done(engine, Ok(()))
}

impl<C: ObjectStoreClient + 'static> ObjectStoreBackend<C> {
    /// A backend over `client` with an empty directory tree.
    pub fn new(client: C) -> ObjectStoreBackend<C> {
        ObjectStoreBackend {
            inner: Rc::new(Inner {
                client,
                state: RefCell::new(State {
                    index: DirIndex::new(),
                    sizes: HashMap::new(),
                    mtimes: HashMap::new(),
                }),
            }),
        }
    }

    /// Load the directory index from wherever the store persists it
    /// (for a client attaching to a store that already holds data, e.g.
    /// after a crash/restart cycle). Completes with `Ok` even when no
    /// index has ever been persisted (the tree is simply empty).
    pub fn hydrate(&self, engine: &Engine, cb: FsCallback<()>) {
        let inner = self.inner.clone();
        self.inner.client.get_index(
            engine,
            Box::new(move |e, r| {
                let r = r.map(|index| {
                    if let Some(index) = index {
                        inner.state.borrow_mut().index = index;
                    }
                });
                cb(e, r)
            }),
        );
    }

    /// Hand `body` the callback that completes the op under the
    /// completion rule (see the module docs). An inline answer's
    /// latency is charged for the `sent` bytes plus those the result
    /// carries back.
    fn complete<T: Payload + 'static>(
        &self,
        sent: usize,
        cb: FsCallback<T>,
        body: impl FnOnce(FsCallback<T>),
    ) {
        let returned = Rc::new(Cell::new(false));
        let waited = returned.clone();
        let inner = self.inner.clone();
        body(Box::new(move |e, r| {
            if waited.get() {
                cb(e, r);
            } else {
                let bytes = sent + r.as_ref().map_or(0, Payload::bytes);
                deliver(e, inner.latency(bytes), cb, r);
            }
        }));
        returned.set(true);
    }

    fn write_guard(&self, path: &str) -> FsResult<()> {
        if self.inner.client.is_read_only() {
            Err(FsError::new(Errno::Erofs, path))
        } else {
            Ok(())
        }
    }

    /// A write op: after the read-only check, `change` updates the
    /// index and caches and returns the store calls that carry the
    /// change out; persisting the index comes last.
    fn write(
        &self,
        engine: &Engine,
        path: &str,
        sent: usize,
        cb: FsCallback<()>,
        change: impl FnOnce(&mut State) -> FsResult<Vec<Step>>,
    ) {
        self.complete(sent, cb, |done| {
            let changed = self
                .write_guard(path)
                .and_then(|()| change(&mut self.inner.state.borrow_mut()));
            match changed {
                Ok(steps) => {
                    let mut steps = VecDeque::from(steps);
                    steps.push_back(self.persist_step());
                    run_steps(engine, steps, done);
                }
                Err(err) => done(engine, Err(err)),
            }
        });
    }

    /// A step that stores `data` at `path`, then records its size and
    /// mtime, unless the store refused it before returning.
    fn put_step(&self, path: &str, data: Vec<u8>) -> Step {
        let inner = self.inner.clone();
        let key = path.to_string();
        Box::new(move |e, done| {
            let size = data.len();
            let refused = Rc::new(Cell::new(false));
            let r = refused.clone();
            let answer = Box::new(move |e: &Engine, result: FsResult<()>| {
                r.set(result.is_err());
                done(e, result)
            });
            inner.client.put(e, &key, data, answer);
            if !refused.get() {
                let mut st = inner.state.borrow_mut();
                st.sizes.insert(key.clone(), size);
                st.mtimes.insert(key, e.now_ns());
            }
        })
    }

    /// A step that moves the blob at `old` to `new` (a missing blob has
    /// nothing to move).
    fn move_step(&self, old: String, new: String) -> Step {
        let inner = self.inner.clone();
        Box::new(move |e, done| {
            let store = inner.clone();
            inner.client.get(
                e,
                &old.clone(),
                Box::new(move |e, r| match r {
                    Ok(Some(data)) => {
                        let then = store.clone();
                        store.client.put(
                            e,
                            &new,
                            data,
                            Box::new(move |e, r| match r {
                                Ok(()) => then.client.delete(e, &old, done),
                                Err(err) => done(e, Err(err)),
                            }),
                        );
                    }
                    Ok(None) => done(e, Ok(())),
                    Err(err) => done(e, Err(err)),
                }),
            );
        })
    }

    /// A step that deletes the blob at `path`.
    fn delete_step(&self, path: &str) -> Step {
        let inner = self.inner.clone();
        let key = path.to_string();
        Box::new(move |e, done| inner.client.delete(e, &key, done))
    }

    /// A step that persists the directory index as it stands when the
    /// step runs.
    fn persist_step(&self) -> Step {
        let inner = self.inner.clone();
        Box::new(move |e, done| {
            let st = inner.state.borrow();
            inner.client.put_index(e, &st.index, done);
        })
    }
}

impl<C: ObjectStoreClient + 'static> Backend for ObjectStoreBackend<C> {
    fn name(&self) -> &'static str {
        self.inner.client.name()
    }

    fn stat(&self, engine: &Engine, path: &str, cb: FsCallback<Stat>) {
        self.complete(0, cb, |done| {
            let st = self.inner.state.borrow();
            let mtime_ns = st.mtimes.get(path).copied().unwrap_or(0);
            let stat = move |kind, size| Stat {
                kind,
                size,
                mtime_ns,
            };
            match (st.index.kind(path), st.sizes.get(path).copied()) {
                (None, _) => done(engine, Err(FsError::new(Errno::Enoent, path))),
                (Some(FileKind::Directory), _) => done(engine, Ok(stat(FileKind::Directory, 0))),
                (Some(FileKind::File), Some(size)) => done(engine, Ok(stat(FileKind::File, size))),
                (Some(FileKind::File), None) => {
                    drop(st);
                    // Size unknown (a hydrated index): fetch the blob.
                    let inner = self.inner.clone();
                    let key = path.to_string();
                    self.inner.client.get(
                        engine,
                        path,
                        Box::new(move |e, r| {
                            let r = r.map(|data| {
                                let size = data.map_or(0, |d| d.len());
                                inner.state.borrow_mut().sizes.insert(key, size);
                                stat(FileKind::File, size)
                            });
                            done(e, r)
                        }),
                    );
                }
            }
        });
    }

    fn open(&self, engine: &Engine, path: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>) {
        let kind = self.inner.state.borrow().index.kind(path);
        if kind.is_none() && flags.create {
            let created =
                Box::new(move |e: &Engine, r: FsResult<()>| cb(e, r.map(|()| Vec::new())));
            return self.write(engine, path, 0, created, |st| {
                st.index.insert_file(path)?;
                Ok(vec![self.put_step(path, Vec::new())])
            });
        }
        self.complete(0, cb, |done| match kind {
            None => done(engine, Err(FsError::new(Errno::Enoent, path))),
            Some(FileKind::Directory) => done(engine, Err(FsError::new(Errno::Eisdir, path))),
            Some(FileKind::File) if flags.exclusive => {
                done(engine, Err(FsError::new(Errno::Eexist, path)))
            }
            Some(FileKind::File) if flags.truncate => {
                // Truncation is recorded locally; the empty image lands
                // at sync time.
                let truncated = self.write_guard(path).map(|()| {
                    self.inner
                        .state
                        .borrow_mut()
                        .sizes
                        .insert(path.to_string(), 0);
                    Vec::new()
                });
                done(engine, truncated)
            }
            Some(FileKind::File) => {
                let inner = self.inner.clone();
                let key = path.to_string();
                self.inner.client.get(
                    engine,
                    path,
                    Box::new(move |e, r| {
                        let r = match r {
                            Ok(Some(data)) => {
                                inner.state.borrow_mut().sizes.insert(key, data.len());
                                Ok(data)
                            }
                            Ok(None) => Err(FsError::new(Errno::Eio, key)),
                            Err(err) => Err(err),
                        };
                        done(e, r)
                    }),
                );
            }
        });
    }

    fn sync(&self, engine: &Engine, path: &str, data: Vec<u8>, cb: FsCallback<()>) {
        self.write(engine, path, data.len(), cb, |st| {
            if !st.index.contains(path) {
                st.index.insert_file(path)?;
            }
            Ok(vec![self.put_step(path, data)])
        });
    }

    fn close(&self, engine: &Engine, _path: &str, cb: FsCallback<()>) {
        deliver(engine, 1_000, cb, Ok(()));
    }

    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>) {
        self.write(engine, from, 0, cb, |st| {
            let moved = st.index.rename(from, to)?;
            for (old, new) in &moved {
                if let Some(s) = st.sizes.remove(old) {
                    st.sizes.insert(new.clone(), s);
                }
                if let Some(t) = st.mtimes.remove(old) {
                    st.mtimes.insert(new.clone(), t);
                }
            }
            Ok(moved
                .into_iter()
                .map(|(old, new)| self.move_step(old, new))
                .collect())
        });
    }

    fn unlink(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        self.write(engine, path, 0, cb, |st| {
            st.index.remove_file(path)?;
            st.sizes.remove(path);
            st.mtimes.remove(path);
            Ok(vec![self.delete_step(path)])
        });
    }

    fn mkdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        self.write(engine, path, 0, cb, |st| {
            st.index.insert_dir(path)?;
            st.mtimes.insert(path.to_string(), engine.now_ns());
            Ok(Vec::new())
        });
    }

    fn rmdir(&self, engine: &Engine, path: &str, cb: FsCallback<()>) {
        self.write(engine, path, 0, cb, |st| {
            st.index.remove_dir(path)?;
            st.mtimes.remove(path);
            Ok(Vec::new())
        });
    }

    fn readdir(&self, engine: &Engine, path: &str, cb: FsCallback<Vec<String>>) {
        let names = self.inner.state.borrow().index.list(path);
        deliver(engine, self.inner.latency(0), cb, names);
    }

    fn utimes(&self, engine: &Engine, path: &str, mtime_ns: u64, cb: FsCallback<()>) {
        let touched = {
            let mut st = self.inner.state.borrow_mut();
            if st.index.contains(path) {
                st.mtimes.insert(path.to_string(), mtime_ns);
                Ok(())
            } else {
                Err(FsError::new(Errno::Enoent, path))
            }
        };
        deliver(engine, self.inner.latency(0), cb, touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_jsengine::Browser;
    use std::collections::BTreeMap;

    /// An in-process async store: the blob map behind one event-loop
    /// hop, standing in for the replicated cluster in unit tests.
    type Blobs = Rc<RefCell<BTreeMap<String, Vec<u8>>>>;

    struct LoopbackStore {
        blobs: Blobs,
    }

    impl LoopbackStore {
        fn new() -> (LoopbackStore, Blobs) {
            let blobs = Rc::new(RefCell::new(BTreeMap::new()));
            (
                LoopbackStore {
                    blobs: blobs.clone(),
                },
                blobs,
            )
        }
    }

    impl ObjectStoreClient for LoopbackStore {
        fn name(&self) -> &'static str {
            "Loopback"
        }
        fn op_latency_ns(&self) -> u64 {
            1_200
        }
        fn get(&self, engine: &Engine, key: &str, cb: FsCallback<Option<Vec<u8>>>) {
            let data = self.blobs.borrow().get(key).cloned();
            deliver(engine, 5_000, cb, Ok(data));
        }
        fn put(&self, engine: &Engine, key: &str, data: Vec<u8>, cb: FsCallback<()>) {
            self.blobs.borrow_mut().insert(key.to_string(), data);
            deliver(engine, 5_000, cb, Ok(()));
        }
        fn delete(&self, engine: &Engine, key: &str, cb: FsCallback<()>) {
            self.blobs.borrow_mut().remove(key);
            deliver(engine, 5_000, cb, Ok(()));
        }
    }

    fn wait<T: 'static>(engine: &Engine, run: impl FnOnce(FsCallback<T>)) -> FsResult<T> {
        let slot: Rc<RefCell<Option<FsResult<T>>>> = Rc::new(RefCell::new(None));
        let s = slot.clone();
        run(Box::new(move |_, r| *s.borrow_mut() = Some(r)));
        engine.run_until_idle();
        let out = slot.borrow_mut().take().expect("operation completed");
        out
    }

    #[test]
    fn whole_file_round_trip_and_index_persistence() {
        let engine = Engine::new(Browser::Chrome);
        let (store, blobs) = LoopbackStore::new();
        let be = ObjectStoreBackend::new(store);

        wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap();
        wait(&engine, |cb| {
            be.open(&engine, "/d/f", OpenFlags::parse("w").unwrap(), cb)
        })
        .unwrap();
        wait(&engine, |cb| {
            be.sync(&engine, "/d/f", b"hello".to_vec(), cb)
        })
        .unwrap();
        let data = wait(&engine, |cb| {
            be.open(&engine, "/d/f", OpenFlags::parse("r").unwrap(), cb)
        })
        .unwrap();
        assert_eq!(data, b"hello");
        // The index is persisted as an object alongside the blobs.
        assert!(blobs.borrow().contains_key(INDEX_KEY));
        assert_eq!(blobs.borrow().get("/d/f").unwrap(), b"hello");

        // A fresh backend hydrates the persisted tree.
        let be2 = ObjectStoreBackend::new(LoopbackStore {
            blobs: blobs.clone(),
        });
        wait(&engine, |cb| be2.hydrate(&engine, cb)).unwrap();
        let st = wait(&engine, |cb| be2.stat(&engine, "/d/f", cb)).unwrap();
        assert!(st.is_file());
        assert_eq!(st.size, 5);
        assert_eq!(
            wait(&engine, |cb| be2.readdir(&engine, "/d", cb)).unwrap(),
            vec!["f"]
        );
    }

    #[test]
    fn errno_surface_holds_over_an_async_store() {
        let engine = Engine::new(Browser::Chrome);
        let (store, _) = LoopbackStore::new();
        let be = ObjectStoreBackend::new(store);

        let e = wait(&engine, |cb| be.stat(&engine, "/missing", cb)).unwrap_err();
        assert_eq!(e.errno, Errno::Enoent);
        let e = wait(&engine, |cb| {
            be.open(&engine, "/no/parent", OpenFlags::parse("w").unwrap(), cb)
        })
        .unwrap_err();
        assert_eq!(e.errno, Errno::Enoent);
        wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap();
        let e = wait(&engine, |cb| be.mkdir(&engine, "/d", cb)).unwrap_err();
        assert_eq!(e.errno, Errno::Eexist);
        let e = wait(&engine, |cb| {
            be.open(&engine, "/d", OpenFlags::parse("r").unwrap(), cb)
        })
        .unwrap_err();
        assert_eq!(e.errno, Errno::Eisdir);
        wait(&engine, |cb| be.sync(&engine, "/d/f", b"x".to_vec(), cb)).unwrap();
        let e = wait(&engine, |cb| be.rmdir(&engine, "/d", cb)).unwrap_err();
        assert_eq!(e.errno, Errno::Enotempty);
    }

    #[test]
    fn rename_moves_blobs_and_subtrees() {
        let engine = Engine::new(Browser::Chrome);
        let (store, blobs) = LoopbackStore::new();
        let be = ObjectStoreBackend::new(store);
        wait(&engine, |cb| be.mkdir(&engine, "/a", cb)).unwrap();
        wait(&engine, |cb| be.sync(&engine, "/a/x", b"1".to_vec(), cb)).unwrap();
        wait(&engine, |cb| be.sync(&engine, "/a/y", b"2".to_vec(), cb)).unwrap();
        wait(&engine, |cb| be.rename(&engine, "/a", "/b", cb)).unwrap();
        assert_eq!(
            wait(&engine, |cb| be.readdir(&engine, "/b", cb)).unwrap(),
            vec!["x", "y"]
        );
        assert!(blobs.borrow().get("/a/x").is_none());
        assert_eq!(blobs.borrow().get("/b/x").unwrap(), b"1");
        let data = wait(&engine, |cb| {
            be.open(&engine, "/b/y", OpenFlags::parse("r").unwrap(), cb)
        })
        .unwrap();
        assert_eq!(data, b"2");
    }
}
