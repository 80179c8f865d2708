//! MiniJava's view of the runtime library against the library itself.
//!
//! `doppio-minijava` compiles calls from its own table of the runtime
//! library, since it cannot read the library's class files. Every class
//! and member that table lists must exist in
//! [`runtime_classes`](doppio::jvm::rtlib::runtime_classes) as listed:
//! otherwise a program compiles, and only fails with
//! `NoSuchMethodError` when it runs.

use doppio::classfile::access::ACC_STATIC;
use doppio::minijava::ast::Type;
use doppio::minijava::library;
use doppio::minijava::table::{descriptor, method_descriptor, ClassTable};

#[test]
fn every_library_member_minijava_lists_exists_in_the_runtime_library() {
    let runtime = doppio::jvm::rtlib::runtime_classes();
    let table = ClassTable::default();
    let mut classes: Vec<_> = library::classes().values().collect();
    classes.sort_by(|a, b| a.name.cmp(&b.name));
    for class in classes {
        let bin = &class.binary;
        let cf = runtime
            .iter()
            .find(|cf| cf.name().ok() == Some(bin.as_str()))
            .unwrap_or_else(|| panic!("{} is not in the runtime library", class.name));
        let sup = class.super_name.as_deref().map(|s| table.binary_name(s));
        assert_eq!(cf.super_name().ok().flatten(), sup, "superclass of {bin}");
        for (is_static, ty, name) in &class.fields {
            let desc = descriptor(&table, ty);
            let found = cf.fields.iter().any(|f| {
                f.name == *name
                    && f.descriptor == desc
                    && (f.access_flags & ACC_STATIC != 0) == *is_static
            });
            assert!(found, "field {bin}.{name}:{desc} (static: {is_static})");
        }
        let members = class
            .ctors
            .iter()
            .map(|params| (false, "<init>", params, &Type::Void))
            .chain(
                class
                    .methods
                    .iter()
                    .map(|m| (m.is_static, m.name.as_str(), &m.params, &m.ret)),
            );
        for (is_static, name, params, ret) in members {
            let desc = method_descriptor(&table, params, ret);
            let found = cf.methods.iter().any(|m| {
                m.name == name
                    && m.descriptor == desc
                    && (m.access_flags & ACC_STATIC != 0) == is_static
            });
            assert!(found, "method {bin}.{name}{desc} (static: {is_static})");
        }
    }
}
