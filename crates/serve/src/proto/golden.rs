//! The protocol's bytes, pinned: one hand-built frame of each kind,
//! encoded and compared with the line the codec wrote at the current
//! [`WIRE_VERSION`](super::WIRE_VERSION). Round-trip tests pass whenever
//! the encoder and decoder change together; this one fails on any byte
//! change, which must come with a version bump and new literals here.

use sling::{
    lint_codes, AnalysisRequest, CacheStats, DataOrder, Diagnostic, Diagnostics, ExactCell,
    ExactVal, Executor, InputSpec, Invariant, InvariantGrade, InvariantStats, ListLayout,
    LocationAnalysis, Report, RunMetrics, Severity, TreeKind, TreeLayout, ValueSpec,
};
use sling_lang::Location;
use sling_logic::{parse_formula, Span, Symbol};
use sling_models::{Heap, HeapCell, Loc, Val};

use super::{
    encode_analyze_frame, encode_report_frame, ClientFrame, PoolStats, ProgramUpload, ServerFrame,
    VerifyTotals,
};

/// Every `ValueSpec` shape, every data order and every tree kind.
fn value_specs() -> Vec<ValueSpec> {
    let list = ListLayout {
        ty: Symbol::intern("GNode"),
        nfields: 3,
        next: 0,
        prev: Some(1),
        data: Some(2),
    };
    let bare = ListLayout {
        prev: None,
        data: None,
        ..list
    };
    let tree = TreeLayout {
        ty: Symbol::intern("GTree"),
        nfields: 5,
        left: 0,
        right: 1,
        parent: Some(2),
        data: Some(3),
        color: Some(4),
    };
    vec![
        ValueSpec::nil(),
        ValueSpec::int(-3),
        ValueSpec::int_in(i64::MIN, 5),
        ValueSpec::sll(bare, 4),
        ValueSpec::dll(list, 2).with_order(DataOrder::Sorted),
        ValueSpec::cyclic(list, 3).with_order(DataOrder::Reversed),
        ValueSpec::tree(tree, 7, TreeKind::Random),
        ValueSpec::tree(tree, 0, TreeKind::Bst),
        ValueSpec::tree(tree, 6, TreeKind::Balanced),
        ValueSpec::tree(tree, 5, TreeKind::RedBlack),
        ValueSpec::exact(vec![
            ExactCell {
                ty: Symbol::intern("GNode"),
                fields: vec![ExactVal::Cell(1), ExactVal::Nil, ExactVal::Int(-8)],
            },
            ExactCell {
                ty: Symbol::intern("GNode"),
                fields: vec![ExactVal::Nil, ExactVal::Cell(0), ExactVal::Int(9)],
            },
        ]),
    ]
}

fn analyze_frame() -> String {
    let upload = ProgramUpload {
        program: "struct GNode { next: GNode*; }\nfn f(x: GNode*) -> GNode* { return x; }".into(),
        predicates: "pred g(x: GNode*) := emp & x == nil\n\t| exists u. x -> GNode{next: u} * g(u); // \"q\" \\".into(),
    };
    let requests = [
        AnalysisRequest::new("f")
            .input(InputSpec::seeded(7).args(value_specs()))
            .input(InputSpec::seeded(u64::MAX)),
        AnalysisRequest::new("g h"),
    ];
    encode_analyze_frame(42, Some(&upload), &requests).expect("spec-built requests encode")
}

fn heap(cells: &[(u64, Vec<Val>)]) -> Heap {
    cells
        .iter()
        .map(|(loc, fields)| {
            (
                Loc::new(*loc),
                HeapCell::new(Symbol::intern("GNode"), fields.clone()),
            )
        })
        .collect()
}

fn warning() -> Diagnostic {
    Diagnostic::new(
        lint_codes::DEAD_STORE,
        Severity::Warning,
        "initializer of `c` is never used",
    )
    .in_function(Symbol::intern("f"))
    .with_span(Span::new(100, 120))
    .with_note("no later statement observes this value")
}

fn report_frame() -> String {
    let formula = |text: &str| parse_formula(text).expect("golden formulas parse");
    let report = Report {
        target: Symbol::intern("f"),
        locations: vec![
            LocationAnalysis {
                location: Location::Entry,
                invariants: vec![Invariant {
                    location: Location::Entry,
                    formula: formula("exists u. x -> GNode{next: u} * g(u) & x != nil"),
                    residues: vec![
                        heap(&[(1, vec![Val::Addr(Loc::new(2)), Val::Int(-4), Val::Nil])]),
                        Heap::new(),
                    ],
                    activations: vec![3, 5],
                    stats: InvariantStats {
                        singletons: 1,
                        preds: 1,
                        pures: 1,
                    },
                    spurious: false,
                    grade: InvariantGrade::Verified,
                }],
                models_used: 4,
                snapshots_seen: 6,
                tainted: false,
            },
            LocationAnalysis {
                location: Location::LoopHead(Symbol::intern("w")),
                invariants: vec![Invariant {
                    location: Location::LoopHead(Symbol::intern("w")),
                    formula: formula("emp & x == nil"),
                    residues: Vec::new(),
                    activations: Vec::new(),
                    stats: InvariantStats::default(),
                    spurious: true,
                    grade: InvariantGrade::Unknown,
                }],
                models_used: 1,
                snapshots_seen: 1,
                tainted: true,
            },
        ],
        declared_locations: vec![
            Location::Entry,
            Location::LoopHead(Symbol::intern("w")),
            Location::Label(Symbol::intern("dead")),
            Location::Exit(0),
        ],
        metrics: RunMetrics {
            traces: 12,
            runs: 3,
            faulted_runs: 1,
            workers: 2,
            seconds: 0.5,
            verified: 1,
            refuted: 0,
            confirmed: 0,
            unknown: 1,
            refuted_initial: 2,
            cegir_rounds: 1,
            verify_seconds: 0.25,
            collect_seconds: 0.125,
            compile_seconds: 1.5,
            executor: Executor::Bytecode,
            static_warnings: 1,
        },
        cache: CacheStats {
            hits: 1,
            warm_hits: 2,
            misses: 3,
            entries: 4,
            evictions: 5,
            resident_bytes: 6,
        },
        static_warnings: vec![warning()],
        unreachable_locations: vec![Location::Label(Symbol::intern("dead"))],
    };
    encode_report_frame(42, 1, &report)
}

fn pool() -> PoolStats {
    PoolStats {
        hits: 5,
        misses: 2,
        evictions: 1,
        resident: 2,
        capacity: 4,
    }
}

fn frames() -> Vec<String> {
    let mut rejected = Diagnostics::new();
    rejected.push(
        Diagnostic::new(
            lint_codes::USE_BEFORE_INIT,
            Severity::Deny,
            "variable `y` is used before it is initialized",
        )
        .in_function(Symbol::intern("f"))
        .with_span(Span::new(20, 29)),
    );
    rejected.push(warning());
    vec![
        analyze_frame(),
        ClientFrame::Ping.encode().expect("ping encodes"),
        ServerFrame::Hello {
            warm_entries: 12,
            parallelism: 2,
            pool: pool(),
        }
        .encode(),
        ServerFrame::Busy { active: 3, max: 3 }.encode(),
        ServerFrame::Pong.encode(),
        report_frame(),
        ServerFrame::Done {
            id: 42,
            count: 2,
            cache: CacheStats {
                hits: 7,
                warm_hits: 0,
                misses: 9,
                entries: 16,
                evictions: 0,
                resident_bytes: 4096,
            },
            verify: VerifyTotals {
                verified: 1,
                refuted: 0,
                confirmed: 2,
                unknown: 3,
                refuted_initial: 4,
                cegir_rounds: 5,
                verify_seconds: 0.75,
            },
            pool: pool(),
        }
        .encode(),
        ServerFrame::Rejected {
            id: 43,
            diagnostics: rejected,
        }
        .encode(),
        ServerFrame::Error {
            id: 0,
            message: "frame too large: \"x\"\n".into(),
        }
        .encode(),
    ]
}

/// What the frames of [`frames`] encode to, in order.
const GOLDEN: [&str; 9] = [
    concat!(
        "sling9 analyze 42 upload \"struct GNode { next: GNode*; }\\nfn f(x: ",
        "GNode*) -> GNode* { return x; }\" \"pred g(x: GNode*) := emp & x == ",
        "nil\\n\\t| exists u. x -> GNode{next: u} * g(u); // \\\"q\\\" \\\\\" ",
        "2 \"f\" 2 7 11 nil int -3 intin -9223372036854775808 5 list ",
        "\"GNode\" 3 0 - - 4 rand f list \"GNode\" 3 0 1 2 2 sorted f list ",
        "\"GNode\" 3 0 1 2 3 rev t tree \"GTree\" 5 0 1 2 3 4 7 rand tree ",
        "\"GTree\" 5 0 1 2 3 4 0 bst tree \"GTree\" 5 0 1 2 3 4 6 bal tree ",
        "\"GTree\" 5 0 1 2 3 4 5 rb exact 2 \"GNode\" 3 c 1 nil i -8 \"GNode\" ",
        "3 nil c 0 i 9 18446744073709551615 0 \"g h\" 0",
    ),
    "sling9 ping",
    "sling9 hello 12 2 5 2 1 2 4",
    "sling9 busy 3 3",
    "sling9 pong",
    concat!(
        "sling9 report 42 1 \"f\" 12 3 1 2 4602678819172646912 1 0 0 1 2 1 ",
        "4598175219545276416 4593671619917905920 4609434218613702656 bytecode ",
        "1 1 2 3 4 5 6 4 entry loop \"w\" label \"dead\" exit 0 2 entry 4 6 f ",
        "1 entry \"exists u. x -> GNode{next: u} * g(u) & x != nil\" 1 1 1 f ",
        "verified 2 1 1 \"GNode\" 3 a 2 i -4 nil 0 2 3 5 loop \"w\" 1 1 t 1 ",
        "loop \"w\" \"emp & x == nil\" 0 0 0 t unknown 0 0 1 \"SA003\" warn f ",
        "\"f\" 100 120 \"initializer of `c` is never used\" 1 \"no later ",
        "statement observes this value\" 1 label \"dead\"",
    ),
    "sling9 done 42 2 7 0 9 16 0 4096 1 0 2 3 4 5 4604930618986332160 5 2 1 2 4",
    concat!(
        "sling9 rejected 43 2 \"SA001\" deny f \"f\" 20 29 \"variable `y` is ",
        "used before it is initialized\" 0 \"SA003\" warn f \"f\" 100 120 ",
        "\"initializer of `c` is never used\" 1 \"no later statement observes ",
        "this value\"",
    ),
    "sling9 error 0 \"frame too large: \\\"x\\\"\\n\"",
];

#[test]
fn every_frame_kind_encodes_to_its_pinned_bytes() {
    let frames = frames();
    assert_eq!(frames.len(), GOLDEN.len());
    let changed: Vec<&String> = frames
        .iter()
        .zip(GOLDEN)
        .filter(|(frame, golden)| frame.as_str() != *golden)
        .map(|(frame, _)| frame)
        .collect();
    assert!(changed.is_empty(), "this build writes:\n{changed:#?}");
}
