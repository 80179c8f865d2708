//! Runtime class representation, registry, and resolution.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use doppio_classfile::{access, ClassFile};

use crate::value::{ObjRef, Value};

/// Index of a class in the registry.
pub type ClassId = usize;

/// `<clinit>` progress (JVMS2 §2.17.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClinitState {
    /// Never initialized.
    NotStarted,
    /// A thread is running `<clinit>` (recursion by the same thread
    /// proceeds, as the specification requires).
    InProgress(usize),
    /// Done.
    Initialized,
    /// `<clinit>` ended by an exception or could not run: every later
    /// initialization throws `NoClassDefFoundError` (JVMS §5.5).
    Erroneous,
}

/// A quickened constant-pool entry: the result of resolving a CP index
/// once, cached per class so the interpreter's hot path never repeats
/// the string-keyed lookup (HotSpot calls this CP quickening; the paper
/// pays the full lookup on every `getfield`/`invoke*`).
///
/// Entries are only installed once the information they capture is
/// final: `ldc` values and symbolic names never change, and field /
/// class entries that imply "initialization already ran" are cached
/// only after the `<clinit>` chain reached `Initialized` (a sticky
/// state). Classes are never redefined in this registry (`define`
/// rejects duplicates), so a cached entry cannot go stale; new
/// *subclasses* invalidate call sites via receiver-class keying in the
/// inline caches, not here.
#[derive(Debug, Clone)]
pub enum CpEntry {
    /// `ldc`/`ldc_w`/`ldc2_w` of a numeric constant, decoded.
    Value(Value),
    /// `ldc` of a String or Class constant: the interned object, shared
    /// across executions instead of re-allocated per hit.
    Obj(ObjRef),
    /// A resolved field reference (get/putfield, get/putstatic).
    Field(Rc<ResolvedField>),
    /// A resolved class reference (`new`, `checkcast`, `instanceof`,
    /// `anewarray`, `multianewarray`).
    Class(Rc<ClassConst>),
}

/// A field reference resolved to its declaring class, with the
/// dictionary key, slot and default value precomputed.
#[derive(Debug)]
pub struct ResolvedField {
    /// Declaring class.
    pub class: ClassId,
    /// Dictionary key (`"DeclaringClass.fieldName"`). For an instance
    /// field this is the declaring class's layout `Rc`, which every
    /// subclass's layout shares, so a pointer comparison with an
    /// object's slot key tells whether the object carries the field.
    pub key: Rc<str>,
    /// The instance field's slot in every layout that carries it (0
    /// for a static field, which lives in its class's `statics`).
    pub slot: usize,
    /// Default value for the descriptor (what `getfield` on an array
    /// or string receiver reads).
    pub default: Value,
    /// Whether the field is static.
    pub is_static: bool,
}

/// A resolved class constant. `checkcast`/`instanceof`/`anewarray` only
/// need the name (the target class may not even be loaded); `new` also
/// records the id once the class is defined *and* initialized, so the
/// hit path can skip the `<clinit>` protocol entirely.
#[derive(Debug)]
pub struct ClassConst {
    /// Binary name from the constant pool.
    pub name: Rc<str>,
    /// Id of the class, filled once it is defined and its `<clinit>`
    /// chain has run to completion (`Initialized` is sticky).
    pub init_id: Cell<Option<ClassId>>,
    /// The `java/lang/Class` mirror object, filled by the first `ldc`
    /// of this constant (mirrors are pooled, so the handle is final).
    pub mirror: Cell<Option<ObjRef>>,
}

/// A defined class.
#[derive(Debug)]
pub struct RuntimeClass {
    /// Registry index.
    pub id: ClassId,
    /// Binary name (`"java/lang/String"`, `"[I"`, ...).
    pub name: String,
    /// Superclass (None only for `java/lang/Object`).
    pub super_id: Option<ClassId>,
    /// Directly implemented interfaces.
    pub interfaces: Vec<ClassId>,
    /// The parsed class file (None for synthesized array classes).
    /// Read-only once defined, so JVMs on one thread share the runtime
    /// library's class files (see [`crate::rtlib`]).
    pub cf: Option<Rc<ClassFile>>,
    /// For array classes: the component type name.
    pub array_component: Option<String>,
    /// Static fields, keyed `"Class.name"`.
    pub statics: HashMap<String, Value>,
    /// Instance-field layout: one key (`"DeclaringClass.fieldName"`)
    /// per slot, the superclass's slots first, sharing its `Rc`s, then
    /// this class's own non-static fields in declaration order. §6.7's
    /// field dictionary, laid out once per class.
    pub slot_keys: Vec<Rc<str>>,
    /// Each slot's descriptor default, in slot order: a new instance's
    /// fields start as a copy of this template.
    pub slot_template: Box<[Value]>,
    /// Initialization state.
    pub clinit: ClinitState,
    /// Quickened constant-pool entries, keyed by CP index, populated on
    /// first use by the interpreter.
    pub cp_cache: RefCell<HashMap<u16, CpEntry>>,
}

impl RuntimeClass {
    /// The slot of instance field `key` (`"DeclaringClass.fieldName"`)
    /// in this class's layout: the by-name lookup for the natives that
    /// touch a field they know by name.
    pub fn field_slot(&self, key: &str) -> Option<usize> {
        self.slot_keys.iter().position(|k| &**k == key)
    }
}

/// A resolved method: declaring class + index into its method list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MethodRef {
    /// Declaring class.
    pub class: ClassId,
    /// Index into that class's `methods`.
    pub index: usize,
}

/// The class registry: all defined classes, by id and name.
#[derive(Debug, Default)]
pub struct ClassRegistry {
    classes: Vec<RuntimeClass>,
    by_name: HashMap<String, ClassId>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> ClassRegistry {
        ClassRegistry::default()
    }

    /// Look up a defined class by name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.by_name.get(name).copied()
    }

    /// The class with the given id.
    pub fn get(&self, id: ClassId) -> &RuntimeClass {
        &self.classes[id]
    }

    /// Mutable access to a class (statics, clinit state).
    pub fn get_mut(&mut self, id: ClassId) -> &mut RuntimeClass {
        &mut self.classes[id]
    }

    /// Number of defined classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether no classes are defined.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Define a class from a parsed class file. The superclass and
    /// interfaces must already be defined (the loader guarantees it).
    ///
    /// Returns `None` if a super/interface is missing (the caller must
    /// load it first).
    pub fn define(&mut self, cf: impl Into<Rc<ClassFile>>) -> Result<ClassId, String> {
        let cf = cf.into();
        let name = cf.name().map_err(|e| e.to_string())?.to_string();
        if self.by_name.contains_key(&name) {
            return Err(format!("class {name} already defined"));
        }
        let super_name = cf
            .super_name()
            .map_err(|e| e.to_string())?
            .map(str::to_string);
        let super_id = match &super_name {
            None => None,
            Some(s) => Some(
                self.lookup(s)
                    .ok_or_else(|| format!("superclass {s} not defined"))?,
            ),
        };
        let mut interfaces = Vec::new();
        for iname in cf.interface_names().map_err(|e| e.to_string())? {
            interfaces.push(
                self.lookup(iname)
                    .ok_or_else(|| format!("interface {iname} not defined"))?,
            );
        }
        let id = self.classes.len();
        // Statics get default values now; ConstantValue attributes are
        // applied by the loader after definition. Instance fields
        // extend the superclass's layout.
        let mut statics = HashMap::new();
        let (mut slot_keys, mut template) = match super_id {
            Some(s) => {
                let sup = self.get(s);
                (sup.slot_keys.clone(), sup.slot_template.to_vec())
            }
            None => (Vec::new(), Vec::new()),
        };
        for f in &cf.fields {
            let key = format!("{name}.{}", f.name);
            let default = Value::default_for(&f.descriptor);
            if f.access_flags & access::ACC_STATIC != 0 {
                statics.insert(key, default);
            } else {
                slot_keys.push(Rc::from(key));
                template.push(default);
            }
        }
        self.by_name.insert(name.clone(), id);
        self.classes.push(RuntimeClass {
            id,
            name,
            super_id,
            interfaces,
            cf: Some(cf),
            array_component: None,
            statics,
            slot_keys,
            slot_template: template.into(),
            clinit: ClinitState::NotStarted,
            cp_cache: RefCell::new(HashMap::new()),
        });
        Ok(id)
    }

    /// Get or synthesize the array class named e.g. `"[I"` or
    /// `"[Ljava/lang/String;"`. `java/lang/Object` must be defined.
    pub fn ensure_array_class(&mut self, name: &str) -> Result<ClassId, String> {
        if let Some(id) = self.lookup(name) {
            return Ok(id);
        }
        if !name.starts_with('[') {
            return Err(format!("{name} is not an array class name"));
        }
        let object = self
            .lookup("java/lang/Object")
            .ok_or("java/lang/Object not defined")?;
        let component = component_name(name);
        let id = self.classes.len();
        self.by_name.insert(name.to_string(), id);
        self.classes.push(RuntimeClass {
            id,
            name: name.to_string(),
            super_id: Some(object),
            interfaces: Vec::new(),
            cf: None,
            array_component: Some(component),
            statics: HashMap::new(),
            slot_keys: Vec::new(),
            slot_template: Box::default(),
            clinit: ClinitState::Initialized,
            cp_cache: RefCell::new(HashMap::new()),
        });
        Ok(id)
    }

    /// Resolve a method by walking the superclass chain, then
    /// interfaces (JVMS method resolution, §5.4.3.3-3.4 simplified).
    pub fn resolve_method(&self, class: ClassId, name: &str, desc: &str) -> Option<MethodRef> {
        // Superclass chain.
        let mut cur = Some(class);
        while let Some(id) = cur {
            let rc = self.get(id);
            if let Some(cf) = &rc.cf {
                if let Some(index) = cf
                    .methods
                    .iter()
                    .position(|m| m.name == name && m.descriptor == desc)
                {
                    return Some(MethodRef { class: id, index });
                }
            }
            cur = rc.super_id;
        }
        // Interfaces (breadth-first over the whole hierarchy).
        let mut queue: Vec<ClassId> = self.all_interfaces(class);
        let mut qi = 0;
        while qi < queue.len() {
            let id = queue[qi];
            qi += 1;
            let rc = self.get(id);
            if let Some(cf) = &rc.cf {
                if let Some(index) = cf
                    .methods
                    .iter()
                    .position(|m| m.name == name && m.descriptor == desc)
                {
                    return Some(MethodRef { class: id, index });
                }
            }
            for &i in &rc.interfaces {
                if !queue.contains(&i) {
                    queue.push(i);
                }
            }
        }
        None
    }

    /// Virtual dispatch: select the implementation of `(name, desc)`
    /// for a receiver of `runtime_class`.
    pub fn select_virtual(
        &self,
        runtime_class: ClassId,
        name: &str,
        desc: &str,
    ) -> Option<MethodRef> {
        self.resolve_method(runtime_class, name, desc)
    }

    fn all_interfaces(&self, class: ClassId) -> Vec<ClassId> {
        let mut out = Vec::new();
        let mut cur = Some(class);
        while let Some(id) = cur {
            let rc = self.get(id);
            for &i in &rc.interfaces {
                if !out.contains(&i) {
                    out.push(i);
                }
            }
            cur = rc.super_id;
        }
        out
    }

    /// Resolve a field by walking the class, its interfaces, then the
    /// superclass chain (JVMS §5.4.3.2). An instance field resolves to
    /// its declaring class's slot and key `Rc`.
    pub fn resolve_field(&self, class: ClassId, name: &str) -> Option<ResolvedField> {
        let rc = self.get(class);
        if let Some(cf) = &rc.cf {
            if let Some(pos) = cf.fields.iter().position(|f| f.name == name) {
                let f = &cf.fields[pos];
                let is_static = f.access_flags & access::ACC_STATIC != 0;
                let (key, slot) = if is_static {
                    (Rc::from(format!("{}.{name}", rc.name)), 0)
                } else {
                    // Own slots follow the superclass's, in declaration order.
                    let inherited = rc.super_id.map_or(0, |s| self.get(s).slot_keys.len());
                    let slot = inherited
                        + cf.fields[..pos]
                            .iter()
                            .filter(|f| f.access_flags & access::ACC_STATIC == 0)
                            .count();
                    (rc.slot_keys[slot].clone(), slot)
                };
                return Some(ResolvedField {
                    class,
                    key,
                    slot,
                    default: Value::default_for(&f.descriptor),
                    is_static,
                });
            }
        }
        for &i in &rc.interfaces {
            if let Some(f) = self.resolve_field(i, name) {
                return Some(f);
            }
        }
        rc.super_id.and_then(|s| self.resolve_field(s, name))
    }

    /// Subtype test: can a value of class `sub` be assigned to
    /// `super_name`? Handles classes, interfaces, and array
    /// covariance.
    pub fn is_assignable(&self, sub: ClassId, super_name: &str) -> bool {
        let sub_rc = self.get(sub);
        if sub_rc.name == super_name || super_name == "java/lang/Object" {
            return true;
        }
        // Array covariance: [X assignable to [Y iff X assignable to Y.
        if let (Some(sc), Some(tc)) = (
            sub_rc.array_component.as_deref(),
            super_name.strip_prefix('['),
        ) {
            let target_component = component_of_descriptor(tc);
            if sc == target_component {
                return true;
            }
            if let Some(sid) = self.lookup(sc) {
                return self.is_assignable(sid, &target_component);
            }
            return false;
        }
        // Class chain.
        if let Some(sup) = sub_rc.super_id {
            if self.is_assignable(sup, super_name) {
                return true;
            }
        }
        // Interfaces.
        sub_rc
            .interfaces
            .iter()
            .any(|&i| self.is_assignable(i, super_name))
    }
}

/// Component type name of an array class name: `"[I"` → `"I"`? No —
/// `"[I"` → primitive int has no class; we name primitive components
/// by their descriptor (`"I"`), object components by their binary name.
fn component_name(array_name: &str) -> String {
    let rest = &array_name[1..];
    component_of_descriptor(rest)
}

fn component_of_descriptor(desc: &str) -> String {
    if let Some(obj) = desc.strip_prefix('L') {
        obj.trim_end_matches(';').to_string()
    } else {
        desc.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppio_classfile::builder::{ClassBuilder, MethodBuilder};

    fn define_object(reg: &mut ClassRegistry) -> ClassId {
        // java/lang/Object has no superclass: patch super_class to 0
        // after building (the builder always interns one).
        let mut b = ClassBuilder::new("java/lang/Object", "java/lang/Object");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC, "<init>", "()V", 1);
        m.return_void();
        b.add_method(m);
        let mut cf = b.finish();
        cf.super_class = 0;
        reg.define(cf).unwrap()
    }

    fn simple_class(reg: &mut ClassRegistry, name: &str, super_name: &str) -> ClassId {
        let mut b = ClassBuilder::new(name, super_name);
        b.add_field(access::ACC_PRIVATE, "x", "I");
        b.add_field(access::ACC_STATIC, "count", "J");
        let mut m = MethodBuilder::new(access::ACC_PUBLIC, "get", "()I", 1);
        m.ldc_int(1);
        m.ireturn();
        b.add_method(m);
        reg.define(b.finish()).unwrap()
    }

    #[test]
    fn hierarchy_resolution() {
        let mut reg = ClassRegistry::new();
        let obj = define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        let b = {
            let builder = ClassBuilder::new("demo/B", "demo/A");
            reg.define(builder.finish()).unwrap()
        };
        // Method declared on A found from B.
        let m = reg.resolve_method(b, "get", "()I").unwrap();
        assert_eq!(m.class, a);
        // <init> found on Object from B.
        let init = reg.resolve_method(b, "<init>", "()V").unwrap();
        assert_eq!(init.class, obj);
        // Field resolution finds A's field from B, keyed by declarer,
        // at A's slot with A's key `Rc`.
        let f = reg.resolve_field(b, "x").unwrap();
        assert_eq!(&*f.key, "demo/A.x");
        assert!(!f.is_static);
        assert_eq!((f.class, f.slot), (a, 0));
        assert!(Rc::ptr_eq(&f.key, &reg.get(a).slot_keys[0]));
        let s = reg.resolve_field(b, "count").unwrap();
        assert!(s.is_static);
        // Assignability.
        assert!(reg.is_assignable(b, "demo/A"));
        assert!(reg.is_assignable(b, "java/lang/Object"));
        assert!(!reg.is_assignable(a, "demo/B"));
    }

    #[test]
    fn subclass_layouts_extend_the_superclass_layout() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        let b = {
            let mut builder = ClassBuilder::new("demo/B", "demo/A");
            builder.add_field(access::ACC_PRIVATE, "y", "J");
            builder.add_field(access::ACC_STATIC, "total", "I");
            builder.add_field(access::ACC_PRIVATE, "x", "Ljava/lang/String;");
            reg.define(builder.finish()).unwrap()
        };
        let (ra, rb) = (reg.get(a), reg.get(b));
        // Static fields stay out of the layout.
        let keys = |rc: &RuntimeClass| -> Vec<String> {
            rc.slot_keys.iter().map(|k| k.to_string()).collect()
        };
        assert_eq!(keys(ra), ["demo/A.x"]);
        // A's slots are a prefix of B's, with the same key `Rc`s; B's
        // redeclared `x` gets its own key and slot after them.
        assert_eq!(keys(rb), ["demo/A.x", "demo/B.y", "demo/B.x"]);
        assert!(Rc::ptr_eq(&ra.slot_keys[0], &rb.slot_keys[0]));
        assert_eq!(
            &*rb.slot_template,
            &[Value::Int(0), Value::Long(0), Value::null()]
        );
        let bx = reg.resolve_field(b, "x").unwrap();
        assert_eq!((bx.class, bx.slot, bx.default), (b, 2, Value::null()));
        assert!(Rc::ptr_eq(&bx.key, &rb.slot_keys[2]));
        assert_eq!(rb.field_slot("demo/A.x"), Some(0));
        assert_eq!(rb.field_slot("demo/B.total"), None);
    }

    #[test]
    fn statics_get_defaults() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        assert_eq!(
            reg.get(a).statics.get("demo/A.count"),
            Some(&Value::Long(0))
        );
    }

    #[test]
    fn array_classes_synthesize_and_assign() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let a = simple_class(&mut reg, "demo/A", "java/lang/Object");
        let _b = {
            let builder = ClassBuilder::new("demo/B", "demo/A");
            reg.define(builder.finish()).unwrap()
        };
        let arr_b = reg.ensure_array_class("[Ldemo/B;").unwrap();
        let arr_a = reg.ensure_array_class("[Ldemo/A;").unwrap();
        assert_ne!(arr_a, arr_b);
        // Covariance: B[] assignable to A[] and to Object.
        assert!(reg.is_assignable(arr_b, "[Ldemo/A;"));
        assert!(reg.is_assignable(arr_b, "java/lang/Object"));
        assert!(!reg.is_assignable(arr_a, "[Ldemo/B;"));
        // Primitive arrays are invariant.
        let arr_i = reg.ensure_array_class("[I").unwrap();
        assert!(!reg.is_assignable(arr_i, "[J"));
        assert!(reg.is_assignable(arr_i, "[I"));
        let _ = a;
    }

    #[test]
    fn missing_super_is_an_error() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        let b = ClassBuilder::new("demo/C", "demo/Missing");
        assert!(reg.define(b.finish()).is_err());
    }

    #[test]
    fn duplicate_definition_is_an_error() {
        let mut reg = ClassRegistry::new();
        define_object(&mut reg);
        simple_class(&mut reg, "demo/A", "java/lang/Object");
        let b = ClassBuilder::new("demo/A", "java/lang/Object");
        assert!(reg.define(b.finish()).is_err());
    }
}
