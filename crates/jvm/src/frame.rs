//! JVM stack frames (§6.1).
//!
//! "DoppioJVM's stack frame is a JavaScript object that contains an
//! array for the operand stack, an array for the local variables, and
//! a reference to the method that the stack frame belongs to. The call
//! stack is simply an array of these stack frame objects." The frame
//! being plain data is what makes suspend-and-resume and exception
//! unwinding (§6.6) trivial — and, "a positive side effect", stack
//! introspection comes for free.

use std::rc::Rc;

use crate::state::CodeBlob;
use crate::value::{ObjRef, Value};

/// One stack frame.
#[derive(Debug)]
pub struct Frame {
    /// The method this frame executes.
    pub code: Rc<CodeBlob>,
    /// Program counter (bytecode offset).
    pub pc: usize,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Operand stack slots.
    pub stack: Vec<Value>,
    /// Monitor held by this frame if the method is `synchronized`
    /// (released on return/unwind).
    pub held_monitor: Option<ObjRef>,
}

impl Frame {
    /// A frame for `code`, locals zero-initialized.
    pub fn new(code: Rc<CodeBlob>) -> Frame {
        Frame::reuse(code, Vec::new(), Vec::with_capacity(8))
    }

    /// [`new`](Self::new), over the vectors of a popped frame: they
    /// keep their capacity, so a frame that fits allocates nothing.
    pub(crate) fn reuse(
        code: Rc<CodeBlob>,
        mut locals: Vec<Value>,
        mut stack: Vec<Value>,
    ) -> Frame {
        locals.clear();
        locals.resize(code.max_locals as usize, Value::Int(0));
        stack.clear();
        Frame {
            code,
            pc: 0,
            locals,
            stack,
            held_monitor: None,
        }
    }

    /// Push a value (wide values get their padding slot).
    #[inline]
    pub fn push(&mut self, v: Value) {
        let wide = v.is_wide();
        self.stack.push(v);
        if wide {
            self.stack.push(Value::Padding);
        }
    }

    /// Pop one *slot* (used by the untyped stack shuffles).
    #[inline]
    pub fn pop_slot(&mut self) -> Value {
        self.stack.pop().expect("operand stack underflow")
    }

    /// Pop a value: strips the padding slot of wide values.
    #[inline]
    pub fn pop(&mut self) -> Value {
        match self.stack.pop().expect("operand stack underflow") {
            Value::Padding => self.stack.pop().expect("wide value under padding"),
            v => v,
        }
    }

    // The typed pops read the slot they expect in place and then shorten
    // the stack: the tag and the payload are separate loads, each within
    // one of the two stores that pushed the slot, so neither waits for
    // the push to reach the cache. Anything else takes the cold path,
    // which pops and converts exactly as `pop()` and `Value::as_int`
    // and the like do.

    /// Pop an `int`.
    #[inline]
    pub fn pop_int(&mut self) -> i32 {
        match self.stack.last() {
            Some(&Value::Int(v)) => {
                self.stack.pop();
                v
            }
            _ => self.pop_other(Value::as_int),
        }
    }

    /// Pop a `long` and its padding slot.
    #[inline]
    pub fn pop_long(&mut self) -> i64 {
        match self.stack.as_slice() {
            &[.., Value::Long(v), Value::Padding] => {
                self.stack.truncate(self.stack.len() - 2);
                v
            }
            _ => self.pop_other(Value::as_long),
        }
    }

    /// Pop a `float`.
    #[inline]
    pub fn pop_float(&mut self) -> f32 {
        match self.stack.last() {
            Some(&Value::Float(v)) => {
                self.stack.pop();
                v
            }
            _ => self.pop_other(Value::as_float),
        }
    }

    /// Pop a `double` and its padding slot.
    #[inline]
    pub fn pop_double(&mut self) -> f64 {
        match self.stack.as_slice() {
            &[.., Value::Double(v), Value::Padding] => {
                self.stack.truncate(self.stack.len() - 2);
                v
            }
            _ => self.pop_other(Value::as_double),
        }
    }

    /// Pop a reference.
    #[inline]
    pub fn pop_ref(&mut self) -> Option<ObjRef> {
        match self.stack.last() {
            Some(&Value::Ref(r)) => {
                self.stack.pop();
                r
            }
            _ => self.pop_other(Value::as_ref),
        }
    }

    /// A typed pop whose slot does not hold what it expects: `pop()`
    /// and `read` it, panicking as they do on a type-confused or empty
    /// stack.
    #[cold]
    #[inline(never)]
    fn pop_other<T>(&mut self, read: fn(&Value) -> T) -> T {
        read(&self.pop())
    }

    /// Peek at the value `depth` slots from the top (0 = top slot).
    pub fn peek(&self, depth: usize) -> &Value {
        &self.stack[self.stack.len() - 1 - depth]
    }

    /// Read a local.
    #[inline]
    pub fn local(&self, idx: usize) -> Value {
        self.locals[idx]
    }

    /// Write a local (wide values fill the next slot with padding).
    #[inline]
    pub fn set_local(&mut self, idx: usize, v: Value) {
        let wide = v.is_wide();
        self.locals[idx] = v;
        if wide {
            self.locals[idx + 1] = Value::Padding;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CodeBlob;

    fn blob() -> Rc<CodeBlob> {
        Rc::new(CodeBlob {
            class: 0,
            name: "t".into(),
            is_clinit: false,
            descriptor: "()V".into(),
            exceptions: vec![],
            max_locals: 6,
            line_numbers: vec![],
            code: crate::decode::decode(&[], &[]),
        })
    }

    #[test]
    fn wide_values_occupy_two_slots() {
        let mut f = Frame::new(blob());
        f.push(Value::Long(7));
        assert_eq!(f.stack.len(), 2);
        assert_eq!(f.pop_long(), 7);
        assert!(f.stack.is_empty());
    }

    #[test]
    fn locals_handle_wide_values() {
        let mut f = Frame::new(blob());
        f.set_local(2, Value::Double(1.5));
        assert_eq!(f.local(2), Value::Double(1.5));
        assert_eq!(f.local(3), Value::Padding);
        f.set_local(0, Value::Int(3));
        assert_eq!(f.local(0), Value::Int(3));
    }

    /// Each typed pop returns its payload and leaves the stack as short
    /// as `pop()` leaves it: one slot for a narrow value, two for a wide
    /// one with its padding.
    #[test]
    fn typed_pops_read_in_place_and_shorten_like_pop() {
        let values = [
            Value::Int(-7),
            Value::Ref(None),
            Value::Ref(Some(42)),
            Value::Float(2.5),
            Value::Long(i64::MIN),
            Value::Double(-0.25),
        ];
        for v in values {
            let (mut typed, mut generic) = (Frame::new(blob()), Frame::new(blob()));
            for f in [&mut typed, &mut generic] {
                f.push(Value::Int(1));
                f.push(v);
            }
            assert_eq!(generic.pop(), v);
            let popped = match v {
                Value::Int(_) => Value::Int(typed.pop_int()),
                Value::Ref(_) => Value::Ref(typed.pop_ref()),
                Value::Float(_) => Value::Float(typed.pop_float()),
                Value::Long(_) => Value::Long(typed.pop_long()),
                Value::Double(_) => Value::Double(typed.pop_double()),
                _ => unreachable!(),
            };
            assert_eq!(popped, v);
            assert_eq!(typed.stack, generic.stack, "{v:?}");
            assert_eq!(typed.stack, [Value::Int(1)]);
        }
    }

    #[test]
    #[should_panic(expected = "expected int, found Float(1.0)")]
    fn a_pop_of_the_wrong_kind_panics() {
        let mut f = Frame::new(blob());
        f.push(Value::Float(1.0));
        f.pop_int();
    }

    #[test]
    #[should_panic(expected = "expected long, found Int(3)")]
    fn a_wide_pop_of_a_narrow_value_panics() {
        let mut f = Frame::new(blob());
        f.push(Value::Int(3));
        f.pop_long();
    }

    #[test]
    #[should_panic(expected = "operand stack underflow")]
    fn a_pop_from_an_empty_stack_panics() {
        Frame::new(blob()).pop_ref();
    }

    #[test]
    fn slot_level_shuffles_see_padding() {
        let mut f = Frame::new(blob());
        f.push(Value::Long(1));
        // pop2 as two slot pops.
        let a = f.pop_slot();
        let b = f.pop_slot();
        assert_eq!(a, Value::Padding);
        assert_eq!(b, Value::Long(1));
    }
}
