//! Dynamically-typed MPY runtime: values, interpreter, bounded input
//! enumeration and equivalence checking.
//!
//! This crate is the runtime substrate of the feedback generator.  The
//! paper encodes Python's dynamic typing inside the statically-typed SKETCH
//! language with a `MultiType` union struct and checks equivalence of the
//! student and reference programs symbolically on all inputs of a bounded
//! size; here the same roles are played by
//!
//! * [`Value`] — the dynamic value type ([`value`] module),
//! * [`Interpreter`] — a fuel-bounded definitional interpreter
//!   ([`interp`] module),
//! * [`InputSpace`] — enumeration of the bounded input space
//!   ([`inputs`] module), and
//! * [`EquivalenceOracle`] — cached reference results + counterexample
//!   queries ([`equiv`] module).
//!
//! # Example
//!
//! ```
//! use afg_interp::{run_function, ExecLimits, Value};
//!
//! let program = afg_parser::parse_program(
//!     "def double(x_int):\n    return x_int * 2\n",
//! )?;
//! let outcome = run_function(&program, Some("double"), &[Value::Int(21)], ExecLimits::default())?;
//! assert_eq!(outcome.value, Value::Int(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod builtins;
pub mod bytecode;
pub mod equiv;
pub mod error;
pub mod inputs;
pub mod interp;
pub mod value;

pub use bytecode::{CompiledProgram, Vm};
pub use equiv::{ChoiceSession, EquivalenceConfig, EquivalenceOracle, ExecResult, SweepStats};
pub use error::RuntimeError;
pub use inputs::InputSpace;
pub use interp::{binary_op, compare_op, run_function, unary_op, ExecLimits, Interpreter, Outcome};
pub use value::Value;
