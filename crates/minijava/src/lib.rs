//! MiniJava: a Java-subset compiler emitting real JVM class files.
//!
//! The Doppio paper's evaluation runs unmodified Java programs —
//! `javap`, `javac`, Rhino, Kawa, DeltaBlue, pidigits — on DoppioJVM.
//! Those programs need the (unavailable) OpenJDK toolchain to build,
//! so this crate supplies the replacement pipeline: benchmark workloads
//! are written in **MiniJava** (classes, single inheritance,
//! constructors, statics, `int`/`long`/`boolean`/`char`/`byte`/
//! `double`, `String`, arrays, the usual statements and operators,
//! string concatenation with `+`) and compiled here into genuine
//! `.class` files that DoppioJVM downloads and interprets exactly as
//! §6.4 describes.
//!
//! Programs compile against DoppioJVM's runtime library as javac
//! compiles against the Java class library. What they may use of it is
//! one table, [`library`]: `Object`, `String`, `StringBuilder`,
//! `System` (with `System.out` and `System.err`, each a `PrintStream`),
//! `Math`, `Integer`, `Long`, `Double` and `Thread` from `java.lang`,
//! and Doppio's `Console`, `FileSystem`, `JS` and `Socket`. The
//! [`table::ClassTable`] resolves every field, constructor and method,
//! the program's and the library's alike, and `codegen` types each
//! expression once, as it emits it.
//!
//! # Example
//!
//! ```
//! use doppio_minijava::compile;
//!
//! let classes = compile(
//!     "class Hello {
//!          static void main(String[] args) {
//!              System.out.println(6 * 7);
//!          }
//!      }",
//! )
//! .unwrap();
//! assert_eq!(classes.len(), 1);
//! assert_eq!(classes[0].name().unwrap(), "Hello");
//! assert!(classes[0].find_method("main", "([Ljava/lang/String;)V").is_some());
//! ```

pub mod ast;
pub mod codegen;
pub mod error;
pub mod lexer;
pub mod library;
pub mod parser;
pub mod table;
pub mod token;

pub use error::{CompileError, Phase};

use doppio_classfile::ClassFile;

/// Compile MiniJava source into JVM class files (one per class).
pub fn compile(source: &str) -> Result<Vec<ClassFile>, CompileError> {
    let tokens = lexer::lex(source)?;
    let program = parser::parse(tokens)?;
    codegen::compile_program(&program)
}

/// Compile and serialize to `(binary name, bytes)` pairs, ready for
/// mounting on a Doppio file system.
pub fn compile_to_bytes(source: &str) -> Result<Vec<(String, Vec<u8>)>, CompileError> {
    Ok(compile(source)?
        .into_iter()
        .map(|cf| {
            let name = cf.name().expect("compiled class name").to_string();
            (name, cf.to_bytes())
        })
        .collect())
}
