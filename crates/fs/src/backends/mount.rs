//! The mountable file system (§5.1 "Mounting File Systems").
//!
//! "DOPPIO provides a standard MountableFileSystem that handles
//! performing operations across different file system backends" using
//! nothing but the standard backend API — so any backend, present or
//! future, can be mounted into a Unix-style directory tree (e.g. an
//! in-memory `/tmp`, server-backed `/sys`, Dropbox-backed `/home`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use doppio_jsengine::Engine;
use doppio_trace::{cat, ArgValue};

use crate::backend::{deliver, Backend, FsCallback, OpenFlags, SharedBackend, Stat};
use crate::error::{Errno, FsError, FsResult};
use crate::path;

/// A backend that routes each path to the backend mounted at its
/// longest matching mount point.
///
/// With [`set_fallthrough`](MountableFs::set_fallthrough) enabled,
/// *read* operations (`stat`, read-only `open`, `readdir`) that fail
/// with a transient `EIO` on the winning mount degrade gracefully:
/// the next-shorter matching mount (ultimately the root backend) is
/// tried instead, and each hand-off emits a `fault`-category
/// `mount_fallthrough` trace event. Writes never fall through — a
/// write landing on a different backend than the one that serves
/// subsequent reads would corrupt the tree.
pub struct MountableFs {
    root: SharedBackend,
    /// Mount point (normalized, absolute, not `/`) → backend.
    mounts: RefCell<BTreeMap<String, SharedBackend>>,
    fallthrough: Cell<bool>,
}

impl MountableFs {
    /// A mountable file system with `root` serving unmounted paths.
    pub fn new(root: SharedBackend) -> MountableFs {
        MountableFs {
            root,
            mounts: RefCell::new(BTreeMap::new()),
            fallthrough: Cell::new(false),
        }
    }

    /// Enable or disable EIO fallthrough for read operations.
    pub fn set_fallthrough(&self, enabled: bool) {
        self.fallthrough.set(enabled);
    }

    /// Mount `backend` at `point` (absolute, not `/`). The mount point
    /// shadows whatever the underlying backend had there.
    pub fn mount(&self, point: &str, backend: SharedBackend) -> FsResult<()> {
        let point = path::normalize(point);
        if !path::is_absolute(&point) || point == "/" {
            return Err(FsError::new(Errno::Einval, point).with_detail("bad mount point"));
        }
        self.mounts.borrow_mut().insert(point, backend);
        Ok(())
    }

    /// Unmount the backend at `point`.
    pub fn unmount(&self, point: &str) -> FsResult<()> {
        let point = path::normalize(point);
        self.mounts
            .borrow_mut()
            .remove(&point)
            .map(|_| ())
            .ok_or_else(|| FsError::new(Errno::Enoent, point).with_detail("not a mount point"))
    }

    /// Resolve `p` to `(backend, path-within-backend, mount-point)`.
    /// The longest mount point that is a prefix of `p` wins; otherwise
    /// the root backend serves it.
    fn route(&self, p: &str) -> (SharedBackend, String, String) {
        let mounts = self.mounts.borrow();
        let mut best: Option<(&String, &SharedBackend)> = None;
        for (point, be) in mounts.iter() {
            let is_prefix = p == point || p.starts_with(&format!("{point}/"));
            if is_prefix && best.map(|(bp, _)| point.len() > bp.len()).unwrap_or(true) {
                best = Some((point, be));
            }
        }
        match best {
            Some((point, be)) => {
                let inner = &p[point.len()..];
                let inner = if inner.is_empty() { "/" } else { inner };
                (be.clone(), inner.to_string(), point.clone())
            }
            None => (self.root.clone(), p.to_string(), String::new()),
        }
    }

    /// All routes that can serve `p`, best first: matching mounts from
    /// longest to shortest prefix, then the root backend. The head is
    /// exactly what [`route`](Self::route) returns.
    fn route_candidates(&self, p: &str) -> Vec<(SharedBackend, String, String)> {
        let mounts = self.mounts.borrow();
        let mut matching: Vec<(&String, &SharedBackend)> = mounts
            .iter()
            .filter(|(point, _)| p == *point || p.starts_with(&format!("{point}/")))
            .collect();
        matching.sort_by_key(|(point, _)| std::cmp::Reverse(point.len()));
        let mut out: Vec<(SharedBackend, String, String)> = matching
            .into_iter()
            .map(|(point, be)| {
                let inner = &p[point.len()..];
                let inner = if inner.is_empty() { "/" } else { inner };
                (be.clone(), inner.to_string(), point.clone())
            })
            .collect();
        out.push((self.root.clone(), p.to_string(), String::new()));
        out
    }

    /// Mount points that are immediate children of directory `dir`.
    fn child_mounts(&self, dir: &str) -> Vec<String> {
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        self.mounts
            .borrow()
            .keys()
            .filter_map(|m| {
                let rest = m.strip_prefix(&prefix)?;
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect()
    }
}

/// One routing candidate: `(backend, path-within-backend, mount-point)`.
type Route = (SharedBackend, String, String);

/// A backend operation applied to one routing candidate, re-issuable
/// per candidate as fallthrough walks the list.
type RouteOp<T> = Rc<dyn Fn(&Engine, &Route, FsCallback<T>)>;

/// Run `op` against `candidates[idx]`. On a transient `EIO` with
/// another candidate remaining, emit a `mount_fallthrough` trace
/// instant and degrade to the next one; any other outcome is final.
fn run_with_fallthrough<T: 'static>(
    engine: &Engine,
    path: String,
    candidates: Rc<Vec<Route>>,
    idx: usize,
    op: RouteOp<T>,
    cb: FsCallback<T>,
) {
    let candidate = candidates[idx].clone();
    let point = candidate.2.clone();
    let op2 = op.clone();
    op(
        engine,
        &candidate,
        Box::new(move |e, r| match r {
            Err(err) if err.errno == Errno::Eio && idx + 1 < candidates.len() => {
                let tracer = e.tracer();
                if tracer.enabled() {
                    let from = if point.is_empty() {
                        "/".to_string()
                    } else {
                        point.clone()
                    };
                    tracer.instant(
                        cat::FAULT,
                        "mount_fallthrough",
                        e.now_ns(),
                        0,
                        vec![
                            ("path", ArgValue::Str(path.clone().into())),
                            ("from_mount", ArgValue::Str(from.into())),
                        ],
                    );
                }
                run_with_fallthrough(e, path, candidates, idx + 1, op2, cb);
            }
            other => cb(e, other),
        }),
    );
}

impl Backend for MountableFs {
    fn name(&self) -> &'static str {
        "Mountable"
    }

    fn stat(&self, engine: &Engine, p: &str, cb: FsCallback<Stat>) {
        if self.fallthrough.get() {
            let cands = Rc::new(self.route_candidates(p));
            let op: RouteOp<Stat> = Rc::new(|e, (be, inner, _), cb| be.stat(e, inner, cb));
            run_with_fallthrough(engine, p.to_string(), cands, 0, op, cb);
            return;
        }
        let (be, inner, _point) = self.route(p);
        be.stat(engine, &inner, cb);
    }

    fn open(&self, engine: &Engine, p: &str, flags: OpenFlags, cb: FsCallback<Vec<u8>>) {
        let pure_read = !flags.write && !flags.create && !flags.truncate;
        if self.fallthrough.get() && pure_read {
            let cands = Rc::new(self.route_candidates(p));
            let op: RouteOp<Vec<u8>> =
                Rc::new(move |e, (be, inner, _), cb| be.open(e, inner, flags, cb));
            run_with_fallthrough(engine, p.to_string(), cands, 0, op, cb);
            return;
        }
        let (be, inner, _) = self.route(p);
        be.open(engine, &inner, flags, cb);
    }

    fn sync(&self, engine: &Engine, p: &str, data: Vec<u8>, cb: FsCallback<()>) {
        let (be, inner, _) = self.route(p);
        be.sync(engine, &inner, data, cb);
    }

    fn close(&self, engine: &Engine, p: &str, cb: FsCallback<()>) {
        let (be, inner, _) = self.route(p);
        be.close(engine, &inner, cb);
    }

    fn rename(&self, engine: &Engine, from: &str, to: &str, cb: FsCallback<()>) {
        let (be_from, inner_from, point_from) = self.route(from);
        let (_, inner_to, point_to) = self.route(to);
        if point_from != point_to {
            // Crossing backends: a real OS returns EXDEV and leaves the
            // copy to userspace.
            deliver(
                engine,
                1_000,
                cb,
                Err(FsError::new(Errno::Exdev, from)
                    .with_detail(format!("cannot rename across mounts to {to}"))),
            );
            return;
        }
        be_from.rename(engine, &inner_from, &inner_to, cb);
    }

    fn unlink(&self, engine: &Engine, p: &str, cb: FsCallback<()>) {
        let (be, inner, _) = self.route(p);
        be.unlink(engine, &inner, cb);
    }

    fn mkdir(&self, engine: &Engine, p: &str, cb: FsCallback<()>) {
        let (be, inner, _) = self.route(p);
        be.mkdir(engine, &inner, cb);
    }

    fn rmdir(&self, engine: &Engine, p: &str, cb: FsCallback<()>) {
        let (be, inner, point) = self.route(p);
        if !point.is_empty() && inner == "/" {
            deliver(
                engine,
                1_000,
                cb,
                Err(FsError::new(Errno::Einval, p).with_detail("cannot rmdir a mount point")),
            );
            return;
        }
        be.rmdir(engine, &inner, cb);
    }

    fn readdir(&self, engine: &Engine, p: &str, cb: FsCallback<Vec<String>>) {
        // Mount points visible under `p` merge into the listing only
        // when the root backend serves it (mounts shadow their subtree).
        let child_mounts = self.child_mounts(p);
        let merge = move |point: &str, result: FsResult<Vec<String>>| {
            let extra = if point.is_empty() {
                child_mounts.clone()
            } else {
                Vec::new()
            };
            result.map(|mut names| {
                for m in extra {
                    if !names.contains(&m) {
                        names.push(m);
                    }
                }
                names.sort();
                names
            })
        };
        if self.fallthrough.get() {
            let cands = Rc::new(self.route_candidates(p));
            let op: RouteOp<Vec<String>> = {
                let merge = Rc::new(merge);
                Rc::new(move |e, (be, inner, point), cb| {
                    let merge = merge.clone();
                    let point = point.clone();
                    be.readdir(
                        e,
                        inner,
                        Box::new(move |e2, result| cb(e2, merge(&point, result))),
                    );
                })
            };
            run_with_fallthrough(engine, p.to_string(), cands, 0, op, cb);
            return;
        }
        let (be, inner, point) = self.route(p);
        be.readdir(
            engine,
            &inner,
            Box::new(move |e, result| cb(e, merge(&point, result))),
        );
    }

    fn utimes(&self, engine: &Engine, p: &str, mtime_ns: u64, cb: FsCallback<()>) {
        let (be, inner, _) = self.route(p);
        be.utimes(engine, &inner, mtime_ns, cb);
    }
}
