//! The class loader (§6.4).
//!
//! "The DoppioJVM class loader uses the Doppio file system and its
//! Buffer module to appropriately download and parse JVM class files.
//! ... When the class loader opens a class file for reading, the file
//! system backend launches an asynchronous download request for the
//! particular file to load it into memory before passing it to the
//! class loader." The requesting JVM thread *blocks* (suspends) while
//! the download is in flight — the §4.2 async→sync bridge in action —
//! and classes are fetched lazily, on first reference, so unused
//! classes never hit memory or storage.

use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use doppio_classfile::{parse, ClassFile, Constant};
use doppio_core::{AsyncCell, AsyncResolver, Resource, ThreadContext};
use doppio_fs::FileSystem;

use crate::frame::Frame;
use crate::interp::{self, StepResult};
use crate::state::JvmState;
use crate::value::Value;

/// Loader bookkeeping inside [`JvmState`].
#[derive(Default)]
pub struct LoaderState {
    /// Parsed classes waiting for their superclass/interfaces.
    pub parked: Vec<ClassFile>,
    /// Classes that permanently failed to load, with the reason.
    pub failed: HashMap<String, String>,
    /// Count of classes fetched through the file system.
    pub fetches: u64,
}

/// Load class `want` for the calling thread: the step it leaves with. A
/// class that already failed to load throws `NoClassDefFoundError`.
/// Otherwise the thread blocks on the class's download, and then on
/// those of the superclasses and interfaces it needs first, until the
/// class is defined and the instruction that wants it retries (with no
/// suspend check), or its loading fails and throws.
pub(crate) fn load_class(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    want: String,
) -> StepResult {
    if let Some(reason) = state.loader.failed.get(&want).cloned() {
        return no_class_def(state, frames, ctx, &reason);
    }
    let mut cell = start_fetch(state, ctx, &want);
    note_class_wait(state, frames, ctx, &want);
    let mut fetching = want.clone();
    StepResult::Blocked(Box::new(move |state, frames, ctx| {
        let Some(result) = cell.take() else {
            note_class_wait(state, frames, ctx, &fetching);
            return None;
        };
        match after_fetch(state, &fetching, result) {
            AfterFetch::Fail(e) => return Some(no_class_def(state, frames, ctx, &e)),
            AfterFetch::Fetch(dep) => fetching = dep,
            AfterFetch::Ready if state.registry.lookup(&want).is_none() => {
                fetching = want.clone();
            }
            // Defined: the instruction retries.
            AfterFetch::Ready => return Some(StepResult::Continue),
        }
        cell = start_fetch(state, ctx, &fetching);
        None
    }))
}

/// Throw `NoClassDefFoundError` for a class that cannot load.
fn no_class_def(
    state: &mut JvmState,
    frames: &mut Vec<Frame>,
    ctx: &mut ThreadContext<'_>,
    reason: &str,
) -> StepResult {
    let tid = ctx.thread_id();
    let class = "java/lang/NoClassDefFoundError";
    interp::throw_vm(state, frames, ctx, tid, class, reason)
}

/// Record the calling thread's wait for class `name`'s download in the
/// wait-for graph.
fn note_class_wait(state: &JvmState, frames: &[Frame], ctx: &ThreadContext<'_>, name: &str) {
    let site = interp::current_site(state, frames);
    ctx.note_block(Resource::Async(format!("classload({name})")), site);
}

/// Result of a fetch completion.
#[derive(Debug, PartialEq, Eq)]
enum AfterFetch {
    /// The requested class (and possibly parked dependents) is defined.
    Ready,
    /// Another class must be fetched first (a superclass/interface).
    Fetch(String),
    /// Loading failed permanently.
    Fail(String),
}

/// Begin fetching `.class` bytes for `name`, trying each classpath
/// entry in order. The calling thread must block on the returned cell.
fn start_fetch(
    state: &mut JvmState,
    ctx: &mut ThreadContext<'_>,
    name: &str,
) -> AsyncCell<Result<Vec<u8>, String>> {
    state.loader.fetches += 1;
    let candidates: VecDeque<String> = state
        .classpath
        .iter()
        .map(|cp| format!("{cp}/{name}.class"))
        .collect();
    let fs = state.fs.clone();
    let name = name.to_string();
    ctx.block_on(move |_engine, resolver| {
        try_candidates(fs, candidates, name, resolver);
    })
}

fn try_candidates(
    fs: FileSystem,
    mut rest: VecDeque<String>,
    name: String,
    resolver: AsyncResolver<Result<Vec<u8>, String>>,
) {
    match rest.pop_front() {
        None => resolver.resolve(Err(format!("class {name} not found on classpath"))),
        Some(path) => {
            let fs2 = fs.clone();
            fs.read_file(&path, move |_, result| match result {
                Ok(bytes) => resolver.resolve(Ok(bytes)),
                Err(_) => try_candidates(fs2, rest, name, resolver),
            });
        }
    }
}

/// Feed fetched bytes (or the fetch error) back into the loader and
/// drive definition as far as possible.
fn after_fetch(state: &mut JvmState, name: &str, result: Result<Vec<u8>, String>) -> AfterFetch {
    // Another thread may have loaded the class while our fetch was in
    // flight (§6.2 threads share one class registry): that's success.
    if state.registry.lookup(name).is_some() {
        return AfterFetch::Ready;
    }
    match result {
        Err(e) => {
            state.loader.failed.insert(name.to_string(), e.clone());
            AfterFetch::Fail(e)
        }
        Ok(bytes) => {
            let cf = match parse(&bytes) {
                Ok(cf) => cf,
                Err(e) => {
                    let msg = format!("malformed class {name}: {e}");
                    state.loader.failed.insert(name.to_string(), msg.clone());
                    return AfterFetch::Fail(msg);
                }
            };
            match cf.name() {
                Ok(n) if n == name => {}
                Ok(n) => {
                    let msg = format!("expected class {name}, file defines {n}");
                    state.loader.failed.insert(name.to_string(), msg.clone());
                    return AfterFetch::Fail(msg);
                }
                Err(e) => {
                    let msg = format!("bad class {name}: {e}");
                    state.loader.failed.insert(name.to_string(), msg.clone());
                    return AfterFetch::Fail(msg);
                }
            }
            // Don't park the same class twice (concurrent loaders).
            if !state
                .loader
                .parked
                .iter()
                .any(|p| p.name().ok() == Some(name))
            {
                state.loader.parked.push(cf);
            }
            drain_parked(state, name)
        }
    }
}

/// Define every parked class whose dependencies are satisfied; report
/// what is still missing for `target`.
fn drain_parked(state: &mut JvmState, target: &str) -> AfterFetch {
    loop {
        let mut defined_any = false;
        let mut i = 0;
        while i < state.loader.parked.len() {
            if deps_defined(state, &state.loader.parked[i]) {
                let cf = state.loader.parked.remove(i);
                if let Err(e) = define_with_constants(state, cf) {
                    return AfterFetch::Fail(e);
                }
                defined_any = true;
            } else {
                i += 1;
            }
        }
        if !defined_any {
            break;
        }
    }
    if state.registry.lookup(target).is_some() {
        return AfterFetch::Ready;
    }
    // Find a dependency that is neither defined nor parked: fetch it.
    for cf in &state.loader.parked {
        if let Some(dep) = dep_to_fetch(state, cf) {
            return AfterFetch::Fetch(dep);
        }
    }
    AfterFetch::Fail(format!("could not make progress loading {target}"))
}

fn class_deps(cf: &ClassFile) -> Vec<String> {
    let mut deps = Vec::new();
    if let Ok(Some(s)) = cf.super_name() {
        deps.push(s.to_string());
    }
    if let Ok(ifaces) = cf.interface_names() {
        deps.extend(ifaces.into_iter().map(str::to_string));
    }
    deps
}

/// All dependencies already defined in the registry?
fn deps_defined(state: &JvmState, cf: &ClassFile) -> bool {
    class_deps(cf)
        .iter()
        .all(|d| state.registry.lookup(d).is_some())
}

/// First dependency that is neither defined nor parked.
fn dep_to_fetch(state: &JvmState, cf: &ClassFile) -> Option<String> {
    class_deps(cf).into_iter().find(|d| {
        state.registry.lookup(d).is_none()
            && !state
                .loader
                .parked
                .iter()
                .any(|p| p.name().ok() == Some(d.as_str()))
    })
}

/// Define a class and apply its `ConstantValue` static initializers.
pub fn define_with_constants(
    state: &mut JvmState,
    cf: impl Into<Rc<ClassFile>>,
) -> Result<(), String> {
    let cf = cf.into();
    let name = cf.name().map_err(|e| e.to_string())?.to_string();
    // Collect ConstantValue statics before the registry takes `cf`.
    let mut constants: Vec<(String, Value)> = Vec::new();
    let mut strings: Vec<(String, String)> = Vec::new();
    for f in &cf.fields {
        if let Some(cv) = f.constant_value {
            let key = format!("{name}.{}", f.name);
            match cf.constant_pool.get(cv) {
                Ok(Constant::Integer(v)) => constants.push((key, Value::Int(*v))),
                Ok(Constant::Long(v)) => constants.push((key, Value::Long(*v))),
                Ok(Constant::Float(v)) => constants.push((key, Value::Float(*v))),
                Ok(Constant::Double(v)) => constants.push((key, Value::Double(*v))),
                Ok(Constant::String { .. }) => {
                    if let Ok(s) = cf.constant_pool.string(cv) {
                        strings.push((key, s.to_string()));
                    }
                }
                _ => {}
            }
        }
    }
    let id = state.registry.define(cf)?;
    // Mark the definition point: a new ClassId is the epoch boundary
    // the inline caches key on (a receiver of this class misses every
    // monomorphic cache installed before now).
    let tracer = state.engine.tracer();
    if tracer.enabled() {
        tracer.instant(
            doppio_trace::cat::PERF,
            "class_defined",
            state.engine.now_ns(),
            0,
            vec![
                ("class", name.clone().into()),
                ("id", doppio_trace::ArgValue::U64(id as u64)),
            ],
        );
    }
    for (key, v) in constants {
        state.registry.get_mut(id).statics.insert(key, v);
    }
    for (key, s) in strings {
        let r = state.intern_string(&s);
        state
            .registry
            .get_mut(id)
            .statics
            .insert(key, Value::Ref(Some(r)));
    }
    Ok(())
}
