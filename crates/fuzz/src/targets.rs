//! The six fuzz targets: four attacker-facing decoders run for
//! crash-freedom (the `http` target additionally checks that parsing is
//! invariant under how the bytes are chunked), and two differential
//! targets run against an independent oracle.  Every target maps a raw
//! byte string to a [`Verdict`]; panics are caught with `catch_unwind` so
//! the loop survives them and can minimize the input that triggered one.

use std::panic::{catch_unwind, AssertUnwindSafe};

use afg_ast::ops::BinOp;
use afg_ast::Program;
use afg_eml::{apply_error_model, library, ChoiceAssignment, ErrorModel};
use afg_interp::{binary_op, CompiledProgram, ExecLimits, Interpreter, RuntimeError, Value, Vm};

/// Which decoder/differential pair an input is fed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetKind {
    /// EML error-model text → `afg_eml::parse_error_model`.
    Eml,
    /// MPY submission source → `afg_parser::parse_program`.
    Parser,
    /// JSON document → `afg_json::parse_json`.
    Json,
    /// Raw HTTP/1.1 request bytes → `afg_service::RequestParser`, fed
    /// under three different chunkings that must agree.
    Http,
    /// 17-byte `(op, a, b)` chunks → `binary_op` vs the i128-widened oracle.
    Arith,
    /// MPY source → bytecode VM vs tree walker (value + output + fuel),
    /// plain and rewritten into a choice program under an error model.
    Vm,
}

impl TargetKind {
    pub const ALL: [TargetKind; 6] = [
        TargetKind::Eml,
        TargetKind::Parser,
        TargetKind::Json,
        TargetKind::Http,
        TargetKind::Arith,
        TargetKind::Vm,
    ];

    #[must_use]
    pub fn from_name(name: &str) -> Option<TargetKind> {
        match name {
            "eml" => Some(TargetKind::Eml),
            "parser" => Some(TargetKind::Parser),
            "json" => Some(TargetKind::Json),
            "http" => Some(TargetKind::Http),
            "arith" => Some(TargetKind::Arith),
            "vm" => Some(TargetKind::Vm),
            _ => None,
        }
    }

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TargetKind::Eml => "eml",
            TargetKind::Parser => "parser",
            TargetKind::Json => "json",
            TargetKind::Http => "http",
            TargetKind::Arith => "arith",
            TargetKind::Vm => "vm",
        }
    }
}

/// Outcome of feeding one input to one target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The input was accepted (or, for differential targets, all probed
    /// operations agreed).
    Ok,
    /// The input was rejected with a structured error — the healthy path
    /// for malformed input.
    Rejected(String),
    /// The target panicked; the payload is the panic message.
    Crash(String),
    /// A differential target disagreed with its oracle.
    Divergence(String),
}

impl Verdict {
    /// Crashes and divergences are findings; Ok/Rejected are not.
    #[must_use]
    pub fn is_finding(&self) -> bool {
        matches!(self, Verdict::Crash(_) | Verdict::Divergence(_))
    }
}

/// Runs `data` through `kind`, converting panics into [`Verdict::Crash`].
#[must_use]
pub fn run_target(kind: TargetKind, data: &[u8]) -> Verdict {
    let result = catch_unwind(AssertUnwindSafe(|| run_target_inner(kind, data)));
    match result {
        Ok(verdict) => verdict,
        Err(payload) => {
            let message = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Verdict::Crash(message)
        }
    }
}

fn run_target_inner(kind: TargetKind, data: &[u8]) -> Verdict {
    match kind {
        TargetKind::Eml => {
            let text = String::from_utf8_lossy(data);
            match afg_eml::parse_error_model("fuzz", &text) {
                Ok(_) => Verdict::Ok,
                Err(err) => Verdict::Rejected(err.to_string()),
            }
        }
        TargetKind::Parser => {
            let text = String::from_utf8_lossy(data);
            match afg_parser::parse_program(&text) {
                Ok(_) => Verdict::Ok,
                Err(err) => Verdict::Rejected(err.to_string()),
            }
        }
        TargetKind::Json => {
            let text = String::from_utf8_lossy(data);
            match afg_json::parse_json(&text) {
                Ok(_) => Verdict::Ok,
                Err(err) => Verdict::Rejected(err.to_string()),
            }
        }
        TargetKind::Http => run_http(data),
        TargetKind::Arith => run_arith(data),
        TargetKind::Vm => run_vm(data),
    }
}

// ---------------------------------------------------------------------------
// Chunking-invariance target: the incremental HTTP request parser
// ---------------------------------------------------------------------------

/// Cap on recorded parse events per run so a pathological input (say,
/// thousands of tiny pipelined requests) stays bounded.  The cap is a
/// pure function of the byte stream, so it cannot itself introduce a
/// spurious divergence between chunkings.
const HTTP_MAX_EVENTS: usize = 64;

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Feeds `data` to a fresh parser in chunks drawn from `next_chunk`,
/// recording every parse event (completed requests, errors, the EOF
/// outcome) as strings.  Two runs over the same bytes must produce the
/// same trace regardless of chunking — that is the property under test.
fn http_trace(data: &[u8], next_chunk: &mut dyn FnMut() -> usize) -> Vec<String> {
    let mut parser = afg_service::RequestParser::new();
    let mut events = Vec::new();
    let mut at = 0;
    'stream: while at < data.len() {
        let step = next_chunk().clamp(1, data.len() - at);
        let mut slice = &data[at..at + step];
        at += step;
        loop {
            match parser.feed(slice) {
                afg_service::Parse::Complete(request) => {
                    events.push(format!("req {request:?}"));
                    if events.len() >= HTTP_MAX_EVENTS {
                        break 'stream;
                    }
                    // Drain any pipelined request already buffered.
                    slice = &[];
                }
                afg_service::Parse::Partial => break,
                afg_service::Parse::Error(err) => {
                    events.push(format!("err {err:?}"));
                    break 'stream;
                }
            }
        }
    }
    if events.len() < HTTP_MAX_EVENTS {
        let eof = match parser.eof() {
            afg_service::EofOutcome::Closed => "eof closed".to_string(),
            afg_service::EofOutcome::Complete(request) => format!("eof req {request:?}"),
            afg_service::EofOutcome::Error(err) => format!("eof err {err:?}"),
            afg_service::EofOutcome::Drop => "eof drop".to_string(),
        };
        events.push(eof);
    }
    events
}

/// Parses `data` three ways — one whole feed, byte-at-a-time, and
/// randomly sized chunks seeded from the input's own hash — and demands
/// identical event traces.  Any panic is caught upstream as a crash; any
/// trace mismatch is a [`Verdict::Divergence`].
fn run_http(data: &[u8]) -> Verdict {
    let whole = http_trace(data, &mut || data.len().max(1));
    let bytewise = http_trace(data, &mut || 1);
    if whole != bytewise {
        return Verdict::Divergence(format!(
            "byte-at-a-time parse diverged: whole {whole:?} vs bytewise {bytewise:?}"
        ));
    }
    // Chunk sizes seeded from the input's own hash: reproducible per
    // input, yet a fresh boundary pattern for every mutant.
    let mut rng = crate::rng::SplitMix64::new(fnv1a(data));
    let seeded = http_trace(data, &mut || rng.below(17) + 1);
    if whole != seeded {
        return Verdict::Divergence(format!(
            "seeded chunking parse diverged: whole {whole:?} vs chunked {seeded:?}"
        ));
    }
    match whole.first().map(String::as_str) {
        Some(event) if event.starts_with("req ") || event.starts_with("eof req ") => Verdict::Ok,
        Some(event) => Verdict::Rejected(event.to_string()),
        None => Verdict::Rejected("empty trace".to_string()),
    }
}

// ---------------------------------------------------------------------------
// Differential target: binary_op vs i128 oracle
// ---------------------------------------------------------------------------

/// What the i128-widened mathematical semantics say an operation does.
/// Written independently of `afg-interp` (same contract as the seeded
/// sweep in `crates/interp/tests/arith_differential.rs`).
#[derive(Debug, PartialEq, Eq)]
enum Oracle {
    Int(i64),
    Overflow,
    ZeroDivision,
    Unsupported,
}

fn fits(wide: i128) -> Oracle {
    match i64::try_from(wide) {
        Ok(narrow) => Oracle::Int(narrow),
        Err(_) => Oracle::Overflow,
    }
}

/// Floor of `a / b` in i128 (`b != 0`); `div_euclid` floors only for
/// positive divisors, and `a / b == (-a) / (-b)` maps the rest onto it.
fn floor_div_i128(a: i128, b: i128) -> i128 {
    if b > 0 {
        a.div_euclid(b)
    } else {
        (-a).div_euclid(-b)
    }
}

fn oracle_binary(op: BinOp, a: i64, b: i64) -> Oracle {
    let (wa, wb) = (i128::from(a), i128::from(b));
    match op {
        BinOp::Add => fits(wa + wb),
        BinOp::Sub => fits(wa - wb),
        BinOp::Mul => fits(wa * wb),
        BinOp::Div | BinOp::FloorDiv => {
            if b == 0 {
                Oracle::ZeroDivision
            } else {
                fits(floor_div_i128(wa, wb))
            }
        }
        BinOp::Mod => {
            if b == 0 {
                Oracle::ZeroDivision
            } else {
                fits(wa - wb * floor_div_i128(wa, wb))
            }
        }
        BinOp::Pow => {
            if b < 0 {
                return Oracle::Unsupported;
            }
            match a {
                0 => return Oracle::Int(if b == 0 { 1 } else { 0 }),
                1 => return Oracle::Int(1),
                -1 => return Oracle::Int(if b % 2 == 0 { 1 } else { -1 }),
                _ => {}
            }
            let mut acc: i128 = 1;
            for _ in 0..b {
                acc *= wa;
                if i64::try_from(acc).is_err() {
                    return Oracle::Overflow;
                }
            }
            fits(acc)
        }
    }
}

const OPS: [BinOp; 6] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::FloorDiv,
    BinOp::Mod,
    BinOp::Pow,
];

/// Decodes the input as a sequence of 17-byte `(op, a, b)` chunks and
/// checks `binary_op` against the oracle on each.  A trailing partial
/// chunk is ignored; an empty input is trivially Ok.
fn run_arith(data: &[u8]) -> Verdict {
    for chunk in data.chunks_exact(17) {
        let op = OPS[(chunk[0] % 6) as usize];
        let a = i64::from_le_bytes(chunk[1..9].try_into().expect("8 bytes"));
        let b = i64::from_le_bytes(chunk[9..17].try_into().expect("8 bytes"));
        let expected = oracle_binary(op, a, b);
        let observed = match binary_op(op, &Value::Int(a), &Value::Int(b)) {
            Ok(Value::Int(v)) => Oracle::Int(v),
            Ok(other) => {
                return Verdict::Divergence(format!("int {op:?} produced a non-int: {other:?}"))
            }
            Err(RuntimeError::Overflow) => Oracle::Overflow,
            Err(RuntimeError::ZeroDivision) => Oracle::ZeroDivision,
            Err(RuntimeError::Unsupported(_)) => Oracle::Unsupported,
            Err(other) => return Verdict::Divergence(format!("int {op:?} raised {other:?}")),
        };
        if observed != expected {
            return Verdict::Divergence(format!(
                "{op:?}({a}, {b}): interp {observed:?} vs oracle {expected:?}"
            ));
        }
    }
    Verdict::Ok
}

// ---------------------------------------------------------------------------
// Differential target: bytecode VM vs tree walker
// ---------------------------------------------------------------------------

/// Cap on the number of argument tuples probed per program so a single
/// exec stays bounded regardless of arity.
const VM_MAX_ARG_TUPLES: usize = 12;

/// Cap on the choice assignments probed per program (the default plus the
/// first single-site ones), so an exec stays bounded however many sites
/// the error model plants.
const VM_MAX_ASSIGNMENTS: usize = 16;

/// The error model the `vm` target rewrites each program under: the
/// library's generic rules, which between them put choice sites on
/// constants, operators, comparisons, ranges, indices, initialisers,
/// returns and variable references (method receivers included).
fn vm_error_model() -> ErrorModel {
    ErrorModel::new("fuzz")
        .with_rule(library::indr())
        .with_rule(library::initr())
        .with_rule(library::ranr1())
        .with_rule(library::ranr2())
        .with_rule(library::compr())
        .with_rule(library::retr_generic())
        .with_rule(library::arith_op_rule())
        .with_rule(library::const_tweak())
        .with_rule(library::var_swap())
}

/// Runs `args` through the VM (on `compiled`, under whatever selection
/// `vm` holds) and through the tree walker (on `program`), and reports
/// any difference in value, printed output, error or fuel.
fn vm_agrees_with_tree(
    vm: &mut Vm,
    compiled: &CompiledProgram,
    program: &Program,
    entry: &str,
    args: &[Value],
) -> Result<(), String> {
    let limits = ExecLimits::fast();
    let vm_result = vm.run(compiled, args);
    let mut interp = Interpreter::with_limits(program, limits);
    let tree_result = interp.call_entry(Some(entry), args);
    let agree = match (&vm_result, &tree_result) {
        (Ok(v), Ok(t)) => v.value == t.value && v.output == t.output,
        (Err(v), Err(t)) => v == t,
        _ => false,
    };
    if !agree {
        return Err(format!(
            "args {args:?}: vm {vm_result:?} vs tree {tree_result:?}"
        ));
    }
    if vm.fuel_used() != interp.fuel_used() {
        return Err(format!(
            "args {args:?}: fuel vm {} vs tree {}",
            vm.fuel_used(),
            interp.fuel_used()
        ));
    }
    Ok(())
}

/// Compiles the program plainly and, rewritten under [`vm_error_model`],
/// as a choice program; every run must match the tree walker (on the
/// concretized candidate, for choice runs), and no choice run may record
/// a site twice in its verdict-cache key.
fn run_vm(data: &[u8]) -> Verdict {
    let text = String::from_utf8_lossy(data);
    let program = match afg_parser::parse_program(&text) {
        Ok(program) => program,
        Err(err) => return Verdict::Rejected(err.to_string()),
    };
    let Some(func) = program.funcs.first() else {
        return Verdict::Rejected("no function definition".to_string());
    };
    let entry = func.name.clone();
    let params: Vec<_> = func.params.iter().map(|p| p.ty.clone()).collect();
    let arg_tuples: Vec<_> = afg_interp::InputSpace::tiny()
        .enumerate_args(&params)
        .into_iter()
        .take(VM_MAX_ARG_TUPLES)
        .collect();
    // One VM across every run, as a verification session uses it: no
    // state may leak from one run into the next.
    let mut vm = Vm::new(ExecLimits::fast());
    let compiled =
        CompiledProgram::from_program(&program, Some(&entry)).expect("the entry function exists");
    for args in &arg_tuples {
        if let Err(divergence) = vm_agrees_with_tree(&mut vm, &compiled, &program, &entry, args) {
            return Verdict::Divergence(divergence);
        }
    }

    let Ok(choices) = apply_error_model(&program, Some(&entry), &vm_error_model()) else {
        return Verdict::Ok;
    };
    let compiled = CompiledProgram::from_choice(&choices);
    let single_sites = choices.choices.iter().flat_map(|info| {
        (1..info.options.len()).map(|option| ChoiceAssignment::from_pairs([(info.id, option)]))
    });
    let assignments = std::iter::once(ChoiceAssignment::default_choices()).chain(single_sites);
    let mut sites = Vec::new();
    for assignment in assignments.take(VM_MAX_ASSIGNMENTS) {
        let concrete = choices.concretize(&assignment);
        vm.select(&compiled, &assignment);
        for args in &arg_tuples {
            if let Err(divergence) =
                vm_agrees_with_tree(&mut vm, &compiled, &concrete, &entry, args)
            {
                return Verdict::Divergence(format!("{assignment:?}, {divergence}"));
            }
            sites.clear();
            sites.extend(vm.trace().iter().map(|step| step.site));
            sites.sort_unstable();
            sites.dedup();
            if sites.len() != vm.trace().len() {
                return Verdict::Divergence(format!(
                    "{assignment:?}, args {args:?}: key repeats a site: {:?}",
                    vm.trace()
                ));
            }
        }
    }
    Verdict::Ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_round_trip() {
        for kind in TargetKind::ALL {
            assert_eq!(TargetKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TargetKind::from_name("bogus"), None);
    }

    #[test]
    fn decoders_accept_and_reject_without_crashing() {
        assert_eq!(run_target(TargetKind::Json, b"[1, 2, 3]"), Verdict::Ok);
        assert!(matches!(
            run_target(TargetKind::Json, b"[1, 2,"),
            Verdict::Rejected(_)
        ));
        assert_eq!(
            run_target(TargetKind::Parser, b"def f_int(x):\n    return x\n"),
            Verdict::Ok
        );
        assert!(matches!(
            run_target(TargetKind::Parser, b"def ("),
            Verdict::Rejected(_)
        ));
        assert!(matches!(
            run_target(TargetKind::Eml, b"not a rule"),
            Verdict::Rejected(_)
        ));
    }

    #[test]
    fn http_target_is_chunking_invariant_on_healthy_and_hostile_input() {
        // A well-formed pipelined pair parses (first event is a request).
        assert_eq!(
            run_target(
                TargetKind::Http,
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\nPOST /p HTTP/1.1\r\nContent-Length: 2\r\n\r\nok"
            ),
            Verdict::Ok
        );
        // Garbage is rejected, not a finding.
        assert!(matches!(
            run_target(TargetKind::Http, b"\x00\xffnot http at all"),
            Verdict::Rejected(_)
        ));
        // Over-limit declared body is structurally rejected.
        assert!(matches!(
            run_target(
                TargetKind::Http,
                b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            ),
            Verdict::Rejected(_)
        ));
    }

    #[test]
    fn arith_target_agrees_on_edge_chunks() {
        // i64::MIN // -1 — the historical overflow, now pinned.
        let mut chunk = vec![3u8]; // FloorDiv
        chunk.extend_from_slice(&i64::MIN.to_le_bytes());
        chunk.extend_from_slice(&(-1i64).to_le_bytes());
        assert_eq!(run_target(TargetKind::Arith, &chunk), Verdict::Ok);
    }

    #[test]
    fn vm_target_agrees_on_simple_program() {
        let verdict = run_target(
            TargetKind::Vm,
            b"def f_int(x):\n    if x > 0:\n        return x\n    return 0 - x\n",
        );
        assert_eq!(verdict, Verdict::Ok);
    }

    #[test]
    fn vm_target_agrees_on_index_receiver_method_calls() {
        for seed in [
            &include_bytes!("../../../fuzz/corpus/vm/index_append.mpy")[..],
            include_bytes!("../../../fuzz/corpus/vm/nested_index_append.mpy"),
            include_bytes!("../../../fuzz/corpus/vm/index_pop.mpy"),
        ] {
            assert_eq!(run_target(TargetKind::Vm, seed), Verdict::Ok);
        }
    }

    #[test]
    fn vm_target_dispatches_choices_in_every_corpus_seed() {
        for seed in [
            &include_bytes!("../../../fuzz/corpus/vm/abs.mpy")[..],
            include_bytes!("../../../fuzz/corpus/vm/branches.mpy"),
            include_bytes!("../../../fuzz/corpus/vm/index_append.mpy"),
            include_bytes!("../../../fuzz/corpus/vm/index_pop.mpy"),
            include_bytes!("../../../fuzz/corpus/vm/nested_index_append.mpy"),
            include_bytes!("../../../fuzz/corpus/vm/sum_loop.mpy"),
        ] {
            let program = afg_parser::parse_program(&String::from_utf8_lossy(seed)).unwrap();
            let entry = program.funcs[0].name.clone();
            let choices = apply_error_model(&program, Some(&entry), &vm_error_model()).unwrap();
            assert!(choices.num_choices() > 0, "the model plants sites");
            assert_eq!(run_target(TargetKind::Vm, seed), Verdict::Ok);
        }
    }
}
