//! What MiniJava programs may use of DoppioJVM's runtime library: one
//! table, which [`ClassTable`](crate::table::ClassTable) serves next to
//! the program's own classes.
//!
//! Each class is a header line, `[final] class <source name> <binary
//! name> [extends <superclass>]`, followed by its members one to a
//! line: `[static] <name> <descriptor>`, where `<init>` names a
//! constructor and a descriptor without parentheses a field. MiniJava
//! reads every parameter, return and field type off the descriptors.
//! A call resolves to the first applicable member in the order listed,
//! nearest class first, so each overload family lists its narrower
//! parameter types first. The root package's `tests/minijava_library.rs`
//! checks every line against the runtime library's class files.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::ast::Type;
use crate::table::{class_type, ClassInfo, MethodSig};

/// The class every class extends.
pub const ROOT: &str = "Object";

/// What string `+` compiles to: a new `StringBuilder`, the `append`
/// each operand's type resolves to, and the builder's `toString`.
pub const CONCAT: [&str; 3] = ["StringBuilder", "append", "toString"];

const LIBRARY: &str = "
class Object java/lang/Object
    <init> ()V
    hashCode ()I
    toString ()Ljava/lang/String;
    equals (Ljava/lang/Object;)Z
    wait ()V
    notify ()V
    notifyAll ()V
final class String java/lang/String extends Object
    <init> ([B)V
    <init> ([C)V
    length ()I
    hashCode ()I
    charAt (I)C
    equals (Ljava/lang/Object;)Z
    compareTo (Ljava/lang/String;)I
    concat (Ljava/lang/String;)Ljava/lang/String;
    substring (I)Ljava/lang/String;
    substring (II)Ljava/lang/String;
    startsWith (Ljava/lang/String;)Z
    indexOf (Ljava/lang/String;)I
    indexOf (I)I
    toCharArray ()[C
    getBytes ()[B
    intern ()Ljava/lang/String;
    toString ()Ljava/lang/String;
    static valueOf (Z)Ljava/lang/String;
    static valueOf (C)Ljava/lang/String;
    static valueOf (I)Ljava/lang/String;
    static valueOf (J)Ljava/lang/String;
    static valueOf (D)Ljava/lang/String;
final class StringBuilder java/lang/StringBuilder extends Object
    <init> ()V
    append (Ljava/lang/String;)Ljava/lang/StringBuilder;
    append (C)Ljava/lang/StringBuilder;
    append (Z)Ljava/lang/StringBuilder;
    append (I)Ljava/lang/StringBuilder;
    append (J)Ljava/lang/StringBuilder;
    append (D)Ljava/lang/StringBuilder;
    append (Ljava/lang/Object;)Ljava/lang/StringBuilder;
    toString ()Ljava/lang/String;
    length ()I
class PrintStream java/io/PrintStream extends Object
    print (Ljava/lang/String;)V
    print (C)V
    print (Z)V
    print (I)V
    print (J)V
    print (D)V
    print (Ljava/lang/Object;)V
    println ()V
    println (Ljava/lang/String;)V
    println (C)V
    println (Z)V
    println (I)V
    println (J)V
    println (D)V
    println (Ljava/lang/Object;)V
final class System java/lang/System extends Object
    static out Ljava/io/PrintStream;
    static err Ljava/io/PrintStream;
    static currentTimeMillis ()J
    static nanoTime ()J
    static exit (I)V
    static arraycopy (Ljava/lang/Object;ILjava/lang/Object;II)V
final class Math java/lang/Math extends Object
    static sqrt (D)D
    static floor (D)D
    static ceil (D)D
    static log (D)D
    static sin (D)D
    static cos (D)D
    static pow (DD)D
    static random ()D
    static abs (I)I
    static abs (J)J
    static abs (D)D
    static max (II)I
    static max (JJ)J
    static max (DD)D
    static min (II)I
    static min (JJ)J
    static min (DD)D
final class Integer java/lang/Integer extends Object
    static parseInt (Ljava/lang/String;)I
    static toString (I)Ljava/lang/String;
    static toHexString (I)Ljava/lang/String;
final class Long java/lang/Long extends Object
    static parseLong (Ljava/lang/String;)J
    static toString (J)Ljava/lang/String;
final class Double java/lang/Double extends Object
    static parseDouble (Ljava/lang/String;)D
    static toString (D)Ljava/lang/String;
class Thread java/lang/Thread extends Object
    <init> ()V
    start ()V
    join ()V
    isAlive ()Z
    run ()V
    static sleep (J)V
    static yield ()V
    static currentThread ()Ljava/lang/Thread;
final class Console doppio/runtime/Console extends Object
    static readLine ()Ljava/lang/String;
    static readByte ()I
final class FileSystem doppio/runtime/FileSystem extends Object
    static readFileBytes (Ljava/lang/String;)[B
    static writeFileBytes (Ljava/lang/String;[B)V
    static listDir (Ljava/lang/String;)[Ljava/lang/String;
    static exists (Ljava/lang/String;)Z
    static fileSize (Ljava/lang/String;)I
    static mkdir (Ljava/lang/String;)V
    static unlink (Ljava/lang/String;)V
final class JS doppio/runtime/JS extends Object
    static eval (Ljava/lang/String;)Ljava/lang/String;
final class Socket doppio/net/Socket extends Object
    static connect (Ljava/lang/String;I)I
    static write (I[B)V
    static available (I)I
    static read (II)[B
    static close (I)V
";

/// The library's classes by source name, read from the table on first
/// use.
pub fn classes() -> &'static HashMap<String, ClassInfo> {
    static CLASSES: OnceLock<HashMap<String, ClassInfo>> = OnceLock::new();
    CLASSES.get_or_init(read)
}

fn read() -> HashMap<String, ClassInfo> {
    let rows: Vec<Vec<&str>> = LIBRARY
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    // Binary name -> source name, for the class types in descriptors.
    let sources: HashMap<&str, &str> = rows
        .iter()
        .filter_map(|w| match w.as_slice() {
            [.., "class", name, binary] | [.., "class", name, binary, "extends", _] => {
                Some((*binary, *name))
            }
            _ => None,
        })
        .collect();
    let mut classes: Vec<ClassInfo> = Vec::new();
    for w in &rows {
        let (is_static, name, desc) = match w.as_slice() {
            [] => continue,
            [m @ .., "class", name, binary] => {
                classes.push(header(m, name, binary, None));
                continue;
            }
            [m @ .., "class", name, binary, "extends", sup] => {
                classes.push(header(m, name, binary, Some(sup)));
                continue;
            }
            ["static", name, desc] => (true, *name, *desc),
            [name, desc] => (false, *name, *desc),
            other => panic!("malformed library line {other:?}"),
        };
        let class = classes.last_mut().expect("a member follows its class");
        let types = |d: &str| read_types(d, &sources);
        match desc.strip_prefix('(').and_then(|d| d.split_once(')')) {
            None => class
                .fields
                .push((is_static, types(desc).remove(0), name.to_string())),
            Some((params, _)) if name == "<init>" => class.ctors.push(types(params)),
            Some((params, ret)) => class.methods.push(MethodSig {
                is_static,
                name: name.to_string(),
                params: types(params),
                ret: types(ret).remove(0),
            }),
        }
    }
    classes.into_iter().map(|c| (c.name.clone(), c)).collect()
}

/// A class with no members yet, from its header line.
fn header(modifiers: &[&str], name: &str, binary: &str, sup: Option<&&str>) -> ClassInfo {
    ClassInfo {
        name: name.to_string(),
        binary: binary.to_string(),
        super_name: sup.map(|s| s.to_string()),
        is_final: modifiers == ["final"],
        fields: Vec::new(),
        methods: Vec::new(),
        ctors: Vec::new(),
    }
}

/// The types `desc` lists one after another.
fn read_types(mut desc: &str, sources: &HashMap<&str, &str>) -> Vec<Type> {
    let mut types = Vec::new();
    while !desc.is_empty() {
        types.push(read_type(&mut desc, sources));
    }
    types
}

/// Read the type at the front of `desc`, and step past it.
fn read_type(desc: &mut &str, sources: &HashMap<&str, &str>) -> Type {
    let (first, rest) = desc.split_at(1);
    *desc = rest;
    match first {
        "I" => Type::Int,
        "J" => Type::Long,
        "Z" => Type::Boolean,
        "C" => Type::Char,
        "B" => Type::Byte,
        "D" => Type::Double,
        "V" => Type::Void,
        "[" => Type::Array(Box::new(read_type(desc, sources))),
        "L" => {
            let (binary, rest) = desc.split_once(';').expect("a class type ends in ;");
            *desc = rest;
            class_type(sources[binary])
        }
        other => panic!("unknown descriptor type {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_line_reads() {
        let classes = classes();
        assert_eq!(classes.len(), 14);
        let system = &classes["System"];
        assert_eq!(system.binary, "java/lang/System");
        assert_eq!(system.super_name.as_deref(), Some(ROOT));
        assert_eq!(
            system.fields[0],
            (true, Type::Class("PrintStream".into()), "out".into())
        );
        let copy = &system.methods[3];
        assert_eq!(copy.name, "arraycopy");
        assert_eq!(copy.params[1], Type::Int);
        assert_eq!(copy.params[2], Type::Class(ROOT.into()));
        assert_eq!(
            classes["FileSystem"].methods[2].ret,
            Type::Array(Box::new(Type::Str))
        );
        assert_eq!(
            classes["String"].ctors[0],
            vec![Type::Array(Box::new(Type::Byte))]
        );
        assert!(classes[ROOT].super_name.is_none() && !classes["Thread"].is_final);
    }
}
