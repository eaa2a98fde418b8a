//! Loop-nest analysis of lowered programs.
//!
//! Produces, for every innermost store statement, the data both the
//! analytical hardware model (`hwsim`) and the feature extractor
//! (`ansor-features`, Appendix B of the paper) need: the enclosing loop
//! chain, arithmetic operation counts, and per-buffer access descriptors
//! with flat strides; and [`Footprints`], the table of what each access
//! touches at each loop level, which both read.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::dag::{ComputeDag, Reducer};
use crate::error::Error;
use crate::expr::{BinOp, CmpOp, Expr, NodeId, OpCounts, UnOp, VarId};
use crate::lower::{walk, Atom, Leaf, Pos, Program, Simplified, Stmt};
use crate::state::{Annotation, IterInfo, IterKind, Stage, StageId, State};

/// One loop of the chain enclosing a store statement (outer→inner).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopCtx {
    /// Loop variable.
    pub var: VarId,
    /// Trip count.
    pub extent: i64,
    /// Annotation.
    pub ann: Annotation,
    /// Spatial / reduce / mixed classification of the iterator.
    pub kind: IterKind,
}

/// Access type of a buffer within one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessType {
    /// Read only.
    Read,
    /// Write only.
    Write,
    /// Read-modify-write (reduction update).
    ReadWrite,
}

/// How one statement accesses one buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferAccess {
    /// The accessed node's buffer.
    pub node: NodeId,
    /// Read / write / read+write.
    pub access: AccessType,
    /// Flat element stride with respect to each enclosing loop (outer→inner,
    /// aligned with [`StoreAnalysis::loops`]). Strides are measured by
    /// evaluating the flattened index with the loop variable at 0 and 1.
    pub strides: Vec<i64>,
    /// Number of syntactic accesses to this buffer in the statement.
    pub count: u32,
    /// Total number of elements in the buffer.
    pub buffer_elems: i64,
    /// Whether this access is to a constant tensor whose layout was
    /// rewritten to be packed for this stage (§4.2).
    pub packed: bool,
}

impl BufferAccess {
    /// Stride with respect to the innermost loop.
    pub fn innermost_stride(&self) -> i64 {
        *self.strides.last().unwrap_or(&0)
    }
}

/// Cache lines that `elems` elements a smallest stride of `stride` apart
/// span, `line_elems` to a line (one line at stride 0: an access invariant
/// in the sub-nest touches one element).
pub fn lines_spanned(elems: f64, stride: i64, line_elems: i64) -> f64 {
    if stride == 0 {
        return 1.0;
    }
    let per_line = (line_elems as f64 / stride as f64).clamp(1.0, line_elems as f64);
    (elems / per_line).max(1.0)
}

/// One access's footprint at one loop level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Footprint {
    /// Distinct elements one execution of the sub-nest rooted at the level
    /// touches: the product of the extents of the loops at and below it
    /// that the access varies in, capped by the buffer's size.
    pub elems: f64,
    /// Smallest non-zero absolute stride at or below the level, 0 when the
    /// access is invariant there.
    pub min_stride: i64,
    /// Cache lines those elements span: [`lines_spanned`] at `min_stride`,
    /// or at 1 when the access is packed.
    pub lines: f64,
    /// Product of the extents of the loops above the level that the access
    /// varies in: how often the loops outside make it touch a new region.
    pub outer: f64,
}

/// The footprint of every access of one statement at every loop level
/// `0..=loops.len()`, and the iterations of each loop: what the machine
/// model prices and the featurizer's bytes and lines read. An access's
/// cells take one pass over the nest each way; the products are of integer
/// extents below 2^53, exact in `f64` in any order.
#[derive(Debug, Default)]
pub struct Footprints {
    /// `loops.len() + 1`.
    levels: usize,
    /// `levels` cells per access, level 0 first.
    cells: Vec<Footprint>,
    /// `through[i]`: product of the extents of loops `0..=i`, the times
    /// loop `i` iterates.
    through: Vec<f64>,
}

impl Footprints {
    /// Fills the table for `s`, with `line_elems` elements to a cache line,
    /// reusing its vectors.
    pub fn fill(&mut self, s: &StoreAnalysis, line_elems: i64) {
        let n = s.loops.len();
        self.levels = n + 1;
        self.through.clear();
        let mut iterations = 1.0f64;
        for l in &s.loops {
            iterations *= l.extent as f64;
            self.through.push(iterations);
        }
        self.cells.clear();
        self.cells
            .resize(s.accesses.len() * self.levels, Footprint::default());
        for (a, cells) in s.accesses.iter().zip(self.cells.chunks_exact_mut(n + 1)) {
            // Outer to inner: the varying loops above each level.
            let mut outer = 1.0f64;
            for (lvl, cell) in cells.iter_mut().enumerate() {
                cell.outer = outer;
                if lvl < n && a.strides[lvl] != 0 {
                    outer *= s.loops[lvl].extent as f64;
                }
            }
            // Inner to outer: the varying loops at and below each level,
            // and their smallest stride.
            let (buffer_elems, mut varying, mut stride) = (a.buffer_elems as f64, 1.0f64, 0i64);
            for lvl in (0..=n).rev() {
                if lvl < n && a.strides[lvl] != 0 {
                    varying *= s.loops[lvl].extent as f64;
                    let here = a.strides[lvl].abs();
                    stride = if stride == 0 { here } else { stride.min(here) };
                }
                let cell = &mut cells[lvl];
                cell.elems = varying.min(buffer_elems);
                cell.min_stride = stride;
                let read_at = if a.packed { 1 } else { stride };
                cell.lines = lines_spanned(cell.elems, read_at, line_elems);
            }
        }
    }

    /// Access `access`'s footprint at level `lvl` (`0..=loops.len()`).
    pub fn at(&self, access: usize, lvl: usize) -> Footprint {
        self.cells[access * self.levels + lvl]
    }

    /// The times loop `i` iterates: the product of the extents of loops
    /// `0..=i`.
    pub fn iterations(&self, i: usize) -> f64 {
        self.through[i]
    }
}

/// Hands `f` this thread's reused footprint table, for [`Footprints::fill`]
/// to refill statement by statement: once it has grown to the nests a
/// search makes, a fill allocates nothing. (A call from inside `f` works in
/// a table of its own.)
pub fn with_footprints<R>(f: impl FnOnce(&mut Footprints) -> R) -> R {
    thread_local! {
        static TABLE: Cell<Footprints> = Cell::new(Footprints::default());
    }
    let mut table = TABLE.take();
    let out = f(&mut table);
    TABLE.set(table);
    out
}

/// Analysis of one innermost store statement in the context of the full
/// program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StoreAnalysis {
    /// Buffer being stored to.
    pub buffer: NodeId,
    /// Enclosing loop chain, outer→inner.
    pub loops: Vec<LoopCtx>,
    /// Operation counts of the stored value expression.
    pub ops: OpCounts,
    /// Reduction operator if the store is a read-modify-write.
    pub reduce: Option<Reducer>,
    /// All buffer accesses made by the statement (store + loads, merged
    /// per buffer/pattern).
    pub accesses: Vec<BufferAccess>,
    /// `auto_unroll_max_step` pragma in effect for this statement's stage.
    pub pragma_unroll: i64,
    /// Loop variables appearing inside `Select` conditions of the stored
    /// value. When the loops carrying these variables are unrolled, a real
    /// code generator constant-folds the guards (e.g. the zero
    /// multiplications of strided transposed convolution).
    pub guard_vars: Vec<VarId>,
}

impl StoreAnalysis {
    /// Product of all loop extents: how many times the statement executes.
    pub fn trip_count(&self) -> f64 {
        self.loops.iter().map(|l| l.extent as f64).product()
    }

    /// Floating point operations per single execution (including the
    /// reduction combine).
    pub fn flops_per_iter(&self) -> f64 {
        self.ops.total_flops() as f64 + if self.reduce.is_some() { 1.0 } else { 0.0 }
    }

    /// Innermost loop annotated `Vectorize` at or below which this statement
    /// sits, if any: `(level index, extent)`.
    pub fn vectorized_level(&self) -> Option<(usize, i64)> {
        self.loops
            .iter()
            .enumerate()
            .rev()
            .find(|(_, l)| l.ann == Annotation::Vectorize)
            .map(|(i, l)| (i, l.extent))
    }

    /// Product of the extents of the loops annotated `ann`, outer to inner
    /// (1 when there are none).
    pub fn extent_product(&self, ann: Annotation) -> f64 {
        self.loops
            .iter()
            .filter(|l| l.ann == ann)
            .map(|l| l.extent as f64)
            .product()
    }

    /// Product of the extents of leading `Parallel` loops (the paper's
    /// fused-outer-parallel pattern yields one loop; explicit collapsed
    /// nests also work).
    pub fn parallel_extent(&self) -> i64 {
        let mut p = 1;
        for l in &self.loops {
            if l.ann == Annotation::Parallel {
                p *= l.extent;
            } else if p > 1 {
                break;
            }
        }
        p
    }

    /// Number of independent accumulation chains available below the
    /// innermost reduction loop: the product of extents of spatial loops
    /// nested inside the innermost reduce loop that are vectorized or
    /// unrolled (these become independent registers in real codegen).
    pub fn independent_accumulators(&self) -> f64 {
        let Some(last_reduce) = self.loops.iter().rposition(|l| l.kind != IterKind::Space) else {
            return f64::INFINITY; // no reduction chain at all
        };
        let mut acc = 1.0;
        for l in &self.loops[last_reduce + 1..] {
            if l.kind == IterKind::Space
                && matches!(l.ann, Annotation::Vectorize | Annotation::Unroll)
            {
                acc *= l.extent as f64;
            }
        }
        // Small trailing spatial loops may also be unrolled implicitly when
        // the pragma allows it.
        if self.pragma_unroll > 0 {
            let mut body = 1.0;
            for l in self.loops[last_reduce + 1..].iter().rev() {
                if l.kind == IterKind::Space && l.ann == Annotation::None {
                    body *= l.extent as f64;
                    if body <= self.pragma_unroll as f64 {
                        acc *= l.extent as f64;
                    } else {
                        break;
                    }
                }
            }
        }
        acc
    }
}

impl StoreAnalysis {
    /// Multiplier (≤ 1) on compute cost from constant-folding of select
    /// guards: when every loop feeding a `Select` condition is unrolled
    /// (explicitly or via the unroll pragma), the code generator
    /// specializes the body per iteration and dead guarded work disappears
    /// (the paper's transposed-convolution example, §7.1).
    pub fn guard_fold_factor(&self) -> f64 {
        if self.guard_vars.is_empty() {
            return 1.0;
        }
        let mut body = 1.0f64;
        let mut guard_loops = 0;
        let mut folded = 0;
        for l in self.loops.iter().rev() {
            body *= l.extent as f64;
            if !self.guard_vars.contains(&l.var) {
                continue;
            }
            guard_loops += 1;
            let implicit = self.pragma_unroll > 0 && body <= self.pragma_unroll as f64;
            if l.ann == Annotation::Unroll || l.ann == Annotation::Vectorize || implicit {
                folded += 1;
            }
        }
        if guard_loops == 0 {
            1.0 // guards depend only on constants; always folded
        } else if folded == guard_loops {
            0.35
        } else if folded > 0 {
            0.7
        } else {
            1.0
        }
    }
}

/// Analyzes every innermost store statement of a program.
pub fn analyze(program: &Program) -> Vec<StoreAnalysis> {
    let mut out = Vec::new();
    let const_nodes: Vec<bool> = program
        .dag
        .nodes
        .iter()
        .map(|n| n.is_const_placeholder())
        .collect();
    program.for_each_store(&mut |chain, stmt| {
        let Stmt::Store {
            buffer,
            indices,
            value,
            reduce,
        } = stmt
        else {
            return;
        };
        let loops: Vec<LoopCtx> = chain
            .iter()
            .map(|&(var, extent, ann)| LoopCtx {
                var,
                extent,
                ann,
                kind: program.vars[var as usize].kind,
            })
            .collect();
        let vars: Vec<VarId> = loops.iter().map(|l| l.var).collect();
        let pragma = *program.pragma_unroll.get(buffer).unwrap_or(&0);
        let rewritten = program.layout_rewritten.contains(buffer);
        let mut accesses: Vec<BufferAccess> = Vec::new();
        // The store itself.
        push_access(
            &mut accesses,
            program,
            *buffer,
            indices,
            if reduce.is_some() {
                AccessType::ReadWrite
            } else {
                AccessType::Write
            },
            &vars,
            false,
        );
        // Loads in the value.
        value.visit(&mut |e| {
            if let Expr::Load { node, indices } = e {
                let packed = rewritten && const_nodes[*node];
                push_access(
                    &mut accesses,
                    program,
                    *node,
                    indices,
                    AccessType::Read,
                    &vars,
                    packed,
                );
            }
        });
        let mut guard_vars = Vec::new();
        value.visit(&mut |e| {
            if let Expr::Select { cond, .. } = e {
                cond.visit(&mut |c| {
                    if let Expr::LoopVar(v) = c {
                        if !guard_vars.contains(v) {
                            guard_vars.push(*v);
                        }
                    }
                });
            }
        });
        out.push(StoreAnalysis {
            buffer: *buffer,
            loops,
            ops: value.op_counts(),
            reduce: *reduce,
            accesses,
            pragma_unroll: pragma,
            guard_vars,
        });
    });
    out
}

/// Analyzes every innermost store statement of the program `state` lowers
/// to, without building it: equal to `analyze(&lower(state)?)`, errors
/// included, at the cost of the numbers alone. `lower` and [`analyze`]
/// serve the callers that need the tree, and are the reference this one is
/// tested against; the search loop (featurization and the simulated
/// measurement) reads the same statements through [`with_analysis`],
/// without collecting them.
///
/// The nest is walked by `lower`'s own traversal (`lower::walk`). Where
/// `lower` builds an expression, the leaf here keeps its `Shape` — all
/// `analyze` could tell about the built node — and, inside an index, its
/// integer value under every assignment `analyze` differentiates over.
pub fn analyze_state(state: &State) -> Result<Vec<StoreAnalysis>, Error> {
    with_analysis(state, <[StoreAnalysis]>::to_vec)
}

/// Hands `f` the statements [`analyze_state`] returns, analyzed into this
/// thread's reused buffers: once they have grown to the nests a search
/// makes, an analysis allocates nothing. (A call from inside `f` works in
/// buffers of its own.)
pub fn with_analysis<R>(state: &State, f: impl FnOnce(&[StoreAnalysis]) -> R) -> Result<R, Error> {
    thread_local! {
        static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
    }
    let mut scratch = SCRATCH.take();
    scratch.reset();
    let leaf = Analyser {
        state,
        s: &mut scratch,
    };
    let analysed = walk(state, leaf).map(|leaf| f(&leaf.s.stores));
    SCRATCH.set(scratch);
    analysed
}

/// The buffers of an analysis: the statements it made, the parts of
/// earlier statements they are refilled from, and the walk's stacks.
#[derive(Default)]
struct Scratch {
    /// The statements analysed, in walk order.
    stores: Vec<StoreAnalysis>,
    /// Statements of an earlier analysis, emptied, for the next ones.
    spare_stores: Vec<StoreAnalysis>,
    /// Stride vectors of an earlier analysis, emptied.
    spare_strides: Vec<Vec<i64>>,
    /// The open loops, outer→inner.
    loops: Vec<LoopCtx>,
    /// `depth_of[v]`: how many loops were open when variable `v`'s loop
    /// opened (its lane is `1 + depth_of[v]` while it is open).
    depth_of: Vec<usize>,
    /// The lane stack: one frame of `1 + loops.len()` lanes per index value
    /// in the making, and one per open access (its flat index so far).
    lanes: Vec<i64>,
    /// `op_counts` of what has been made of the statement in the making,
    /// its store indices included.
    ops: OpCounts,
    /// The nodes the statement accesses, in `Expr::visit` order, the store
    /// first.
    accesses: Vec<NodeId>,
    /// `loops.len()` strides per entry of `accesses`.
    strides: Vec<i64>,
    /// Loop variables in the statement's `Select` conditions, in
    /// first-visit order.
    guards: Vec<VarId>,
}

impl Scratch {
    /// Empties every buffer, keeping what it holds for reuse: the last
    /// analysis's statements become spares.
    fn reset(&mut self) {
        for mut store in self.stores.drain(..) {
            for access in store.accesses.drain(..) {
                let mut strides = access.strides;
                strides.clear();
                self.spare_strides.push(strides);
            }
            store.loops.clear();
            store.guard_vars.clear();
            self.spare_stores.push(store);
        }
        self.loops.clear();
        self.depth_of.clear();
        self.lanes.clear();
        self.ops = OpCounts::default();
        self.accesses.clear();
        self.strides.clear();
        self.guards.clear();
    }
}

/// What `analyze` reads off a built expression, carried in its place.
#[derive(Clone, Copy)]
struct Shape {
    /// `Some(c)` when the expression is the literal `IntConst(c)`: all the
    /// simplification rules ask of an operand.
    literal: Option<i64>,
    /// Where the expression started. What it added to the statement's
    /// counts and lists lies between here and wherever the analysis stands,
    /// so a rule that drops the expression takes the analysis back here.
    from: Mark,
}

/// A point in the analysis of a statement: the lengths of
/// [`Analyser::accesses`] and [`Analyser::guards`], and the counts of
/// [`Analyser::ops`] that grow inside an index.
#[derive(Clone, Copy)]
struct Mark {
    accesses: usize,
    guards: usize,
    int_ops: u64,
    loads: u64,
    selects: u64,
}

/// An access whose indices are being made.
struct OpenAccess {
    /// Where it started; `from.accesses` is its own place in
    /// [`Analyser::accesses`].
    from: Mark,
    /// Indices given so far.
    dims: usize,
}

/// [`analyze_state`]'s leaf.
///
/// Strides are finite differences of the flattened index, as in
/// [`flat_strides`], but of values, not of a tree: inside an index every
/// value is held in `1 + depth` *lanes* — lane 0 with every enclosing loop
/// variable at zero, lane `1 + k` with the variable of loop `k` at one —
/// computed with [`eval_int`]'s semantics on a stack that follows the
/// operand order of [`Leaf`]. A literal has no frame (each of its lanes
/// would hold the literal), so a constant costs a scalar, not a frame. The
/// simplification rules preserve a value under those semantics, so the
/// lanes are computed as if none applied.
struct Analyser<'a> {
    state: &'a State,
    s: &'a mut Scratch,
}

impl Analyser<'_> {
    fn width(&self) -> usize {
        1 + self.s.loops.len()
    }

    fn push_lanes(&mut self, v: i64) {
        let n = self.s.lanes.len() + self.width();
        self.s.lanes.resize(n, v);
    }

    fn pop_lanes(&mut self) {
        let n = self.s.lanes.len() - self.width();
        self.s.lanes.truncate(n);
    }

    /// The innermost frame.
    fn top_lanes(&mut self) -> &mut [i64] {
        let n = self.s.lanes.len() - self.width();
        &mut self.s.lanes[n..]
    }

    /// Pops the innermost frame into the one below it, lane by lane:
    /// `below = f(below, top)`.
    fn fold_lanes(&mut self, f: impl Fn(i64, i64) -> i64) {
        let w = self.width();
        let n = self.s.lanes.len();
        let (below, top) = self.s.lanes[n - 2 * w..].split_at_mut(w);
        for (b, t) in below.iter_mut().zip(top) {
            *b = f(*b, *t);
        }
        self.s.lanes.truncate(n - w);
    }

    /// Leaves on the stack the frame of `op` over two operands whose
    /// frames are the innermost ones — but a literal operand (`Some`) has
    /// no frame: every lane of it is the literal. The operator is matched
    /// once, not once per lane (each arm's closure names its operator, so
    /// the match inside it folds away).
    fn fold_binary(&mut self, op: BinOp, lhs: Option<i64>, rhs: Option<i64>) {
        use BinOp::*;
        match op {
            Add => self.fold_with(lhs, rhs, false, |l, r| eval_binary(Add, l, r)),
            Sub => self.fold_with(lhs, rhs, false, |l, r| eval_binary(Sub, l, r)),
            Mul => self.fold_with(lhs, rhs, false, |l, r| eval_binary(Mul, l, r)),
            Div => self.fold_with(lhs, rhs, true, |l, r| eval_binary(Div, l, r)),
            Mod => self.fold_with(lhs, rhs, true, |l, r| eval_binary(Mod, l, r)),
            Min => self.fold_with(lhs, rhs, false, |l, r| eval_binary(Min, l, r)),
            Max => self.fold_with(lhs, rhs, false, |l, r| eval_binary(Max, l, r)),
        }
    }

    /// [`Analyser::fold_binary`] by `f`. With `quotient` (a division or
    /// remainder), a lane whose operands are lane 0's takes lane 0's result
    /// instead of dividing again: a loop the value does not vary in leaves
    /// its lane at lane 0's.
    #[inline(always)]
    fn fold_with(
        &mut self,
        lhs: Option<i64>,
        rhs: Option<i64>,
        quotient: bool,
        f: impl Fn(i64, i64) -> i64,
    ) {
        match (lhs, rhs) {
            (None, None) => {
                let w = self.width();
                let n = self.s.lanes.len();
                let (below, top) = self.s.lanes[n - 2 * w..].split_at_mut(w);
                let (l0, r0) = (below[0], top[0]);
                let v0 = f(l0, r0);
                for (b, &t) in below.iter_mut().zip(&*top) {
                    *b = if quotient && *b == l0 && t == r0 {
                        v0
                    } else {
                        f(*b, t)
                    };
                }
                self.s.lanes.truncate(n - w);
            }
            (None, Some(r)) => map_frame(self.top_lanes(), quotient, |l| f(l, r)),
            (Some(l), None) => map_frame(self.top_lanes(), quotient, |r| f(l, r)),
            (Some(l), Some(r)) => self.push_lanes(f(l, r)),
        }
    }

    /// Replaces the frames of `operands` (a literal has none) by the frame
    /// of a value [`eval_int`] reads as 0.
    fn zero_lanes(&mut self, operands: &[Shape]) {
        for _ in operands.iter().filter(|o| o.literal.is_none()) {
            self.pop_lanes();
        }
        self.push_lanes(0);
    }

    fn mark(&self) -> Mark {
        Mark {
            accesses: self.s.accesses.len(),
            guards: self.s.guards.len(),
            int_ops: self.s.ops.int_ops,
            loads: self.s.ops.loads,
            selects: self.s.ops.selects,
        }
    }

    /// Takes the analysis back to where a dropped index expression
    /// started. (Inside an index nothing else is counted.)
    fn rewind(&mut self, to: Mark) {
        self.s.accesses.truncate(to.accesses);
        self.s.strides.truncate(to.accesses * self.s.loops.len());
        self.s.guards.truncate(to.guards);
        self.s.ops.int_ops = to.int_ops;
        self.s.ops.loads = to.loads;
        self.s.ops.selects = to.selects;
    }

    /// A value without operands, starting here.
    fn operand(&self, literal: Option<i64>) -> Shape {
        Shape {
            literal,
            from: self.mark(),
        }
    }

    /// The strides of an access whose indices are all in, from its flat
    /// index, which is popped.
    fn close_access(&mut self, access: &OpenAccess) {
        let depth = self.s.loops.len();
        let n = self.s.lanes.len() - self.width();
        let base = self.s.lanes[n];
        let at = access.from.accesses * depth;
        for (stride, with_var) in self.s.strides[at..at + depth]
            .iter_mut()
            .zip(&self.s.lanes[n + 1..])
        {
            *stride = with_var - base;
        }
        self.s.lanes.truncate(n);
    }
}

impl Leaf for Analyser<'_> {
    type Value = Shape;
    type Access = OpenAccess;
    type Loop = ();

    fn open_loop(&mut self, var: VarId, _: StageId, info: &IterInfo, ann: Annotation) {
        debug_assert_eq!(
            var as usize,
            self.s.depth_of.len(),
            "numbered in opening order"
        );
        self.s.depth_of.push(self.s.loops.len());
        self.s.loops.push(LoopCtx {
            var,
            extent: info.extent,
            ann,
            kind: info.kind,
        });
    }

    fn close_loop(&mut self, (): ()) {
        self.s.loops.pop();
    }

    // `Expr::visit` is pre-order — an access comes before those of the
    // loads in its own indices — so its slot is taken here.
    fn begin_access(&mut self, node: NodeId, _rank: usize) -> OpenAccess {
        let from = self.mark();
        self.s.accesses.push(node);
        let n = self.s.strides.len() + self.s.loops.len();
        self.s.strides.resize(n, 0);
        self.push_lanes(0);
        OpenAccess { from, dims: 0 }
    }

    fn push_index(&mut self, access: &mut OpenAccess, index: Shape) {
        // Row-major. An index beyond the buffer's rank is not part of the
        // flat index (`flat_strides` zips it away).
        let shape = self.state.dag.nodes[self.s.accesses[access.from.accesses]].shape();
        match (shape.get(access.dims + 1..), index.literal) {
            (Some(inner), None) => {
                let dim_stride: i64 = inner.iter().product();
                self.fold_lanes(|flat, index| flat + index * dim_stride);
            }
            (Some(inner), Some(c)) => {
                let offset = c * inner.iter().product::<i64>();
                self.top_lanes().iter_mut().for_each(|flat| *flat += offset);
            }
            (None, None) => self.pop_lanes(),
            (None, Some(_)) => {}
        }
        access.dims += 1;
    }

    fn load(&mut self, access: OpenAccess, pos: Pos) -> Shape {
        self.close_access(&access);
        if pos.index {
            self.push_lanes(0);
        }
        self.s.ops.loads += 1;
        Shape {
            literal: None,
            from: access.from,
        }
    }

    fn store(&mut self, stage: &Stage, access: OpenAccess, value: Shape, reduce: Option<Reducer>) {
        self.close_access(&access);
        debug_assert!(self.s.lanes.is_empty());
        let dag = &self.state.dag;
        let s = &mut *self.s;
        let depth = s.loops.len();
        // Made in an earlier statement's vectors, where there is one.
        let mut out = s.spare_stores.pop().unwrap_or_default();
        for (slot, &node) in s.accesses.iter().enumerate() {
            let access = match (slot, reduce) {
                (0, Some(_)) => AccessType::ReadWrite,
                (0, None) => AccessType::Write,
                _ => AccessType::Read,
            };
            merge_access(
                &mut out.accesses,
                &mut s.spare_strides,
                dag,
                node,
                access,
                &s.strides[slot * depth..(slot + 1) * depth],
                slot > 0 && stage.layout_rewritten && dag.nodes[node].is_const_placeholder(),
            );
        }
        // The stored value's counts: the store's own indices came before
        // it, and are not in `Stmt::Store::value`.
        let mut ops = std::mem::take(&mut s.ops);
        ops.int_ops -= value.from.int_ops;
        ops.loads -= value.from.loads;
        ops.selects -= value.from.selects;
        out.buffer = stage.node;
        out.loops.extend_from_slice(&s.loops);
        out.ops = ops;
        out.reduce = reduce;
        out.pragma_unroll = stage.max_unroll_step.max(0);
        out.guard_vars.extend_from_slice(&s.guards);
        s.stores.push(out);
        s.accesses.clear();
        s.strides.clear();
        s.guards.clear();
    }

    fn atom(&mut self, atom: Atom, pos: Pos) -> Shape {
        let Atom::Var(var) = atom else {
            return self.int(0, pos);
        };
        let shape = self.operand(None);
        if pos.guard && !self.s.guards.contains(&var) {
            self.s.guards.push(var);
        }
        if pos.index {
            self.push_lanes(0);
            // A variable of no enclosing loop (its loop closed, or it was
            // never opened) is 0 under every assignment.
            let depth = self.s.depth_of.get(var as usize).copied();
            if let Some(k) = depth.filter(|&k| self.s.loops.get(k).is_some_and(|l| l.var == var)) {
                self.top_lanes()[1 + k] = 1;
            }
        }
        shape
    }

    fn int(&mut self, v: i64, _: Pos) -> Shape {
        self.operand(Some(v))
    }

    fn float(&mut self, v: f64, pos: Pos) -> Shape {
        if pos.index {
            self.push_lanes(v as i64);
        }
        self.operand(None)
    }

    fn binary(&mut self, op: BinOp, lhs: Shape, rhs: Shape, pos: Pos) -> Shape {
        let kept = Shape {
            literal: None,
            from: lhs.from,
        };
        if !pos.index {
            // Kept as written, whatever the operands (`Expr::binary`).
            match op {
                BinOp::Add => self.s.ops.float_add += 1,
                BinOp::Sub => self.s.ops.float_sub += 1,
                BinOp::Mul => self.s.ops.float_mul += 1,
                BinOp::Div => self.s.ops.float_div += 1,
                BinOp::Mod => self.s.ops.float_mod += 1,
                BinOp::Min | BinOp::Max => self.s.ops.float_cmp += 1,
            }
            return kept;
        }
        match Simplified::of(op, lhs.literal, rhs.literal) {
            // The other operand is a literal: it added nothing, and its
            // lanes equal the kept operand's.
            Simplified::Lhs => lhs,
            Simplified::Rhs => rhs,
            Simplified::Literal(c) => {
                // The operands go, and their frames, loads, guard
                // variables and counts with them.
                for operand in [lhs, rhs] {
                    if operand.literal.is_none() {
                        self.pop_lanes();
                    }
                }
                self.rewind(lhs.from);
                self.operand(Some(c))
            }
            Simplified::Kept => {
                self.fold_binary(op, lhs.literal, rhs.literal);
                self.s.ops.int_ops += 1;
                kept
            }
        }
    }

    fn unary(&mut self, op: UnOp, arg: Shape, pos: Pos) -> Shape {
        if pos.index {
            self.zero_lanes(&[arg]);
        } else {
            match op {
                UnOp::Neg | UnOp::Abs => self.s.ops.float_add += 1,
                UnOp::Sqrt | UnOp::Exp | UnOp::Tanh | UnOp::Erf => self.s.ops.math_calls += 1,
            }
        }
        Shape {
            literal: None,
            from: arg.from,
        }
    }

    fn cmp(&mut self, _: CmpOp, lhs: Shape, rhs: Shape, pos: Pos) -> Shape {
        if pos.index {
            self.zero_lanes(&[lhs, rhs]);
            self.s.ops.int_ops += 1;
        } else {
            self.s.ops.float_cmp += 1;
        }
        Shape {
            literal: None,
            from: lhs.from,
        }
    }

    fn select(&mut self, cond: Shape, then: Shape, other: Shape, pos: Pos) -> Shape {
        self.s.ops.selects += 1;
        if pos.index {
            self.zero_lanes(&[cond, then, other]);
        }
        Shape {
            literal: None,
            from: cond.from,
        }
    }
}

fn push_access(
    accesses: &mut Vec<BufferAccess>,
    program: &Program,
    node: NodeId,
    indices: &[Expr],
    access: AccessType,
    vars: &[VarId],
    packed: bool,
) {
    let strides = flat_strides(program, node, indices, vars);
    merge_access(
        accesses,
        &mut Vec::new(),
        &program.dag,
        node,
        access,
        &strides,
        packed,
    );
}

/// Records one access of a statement: merged into the first access of the
/// same node with the same strides (counted again, read-write if the types
/// differ), or appended as a new one, its strides copied into a vector from
/// `spare` if there is one.
fn merge_access(
    accesses: &mut Vec<BufferAccess>,
    spare: &mut Vec<Vec<i64>>,
    dag: &ComputeDag,
    node: NodeId,
    access: AccessType,
    strides: &[i64],
    packed: bool,
) {
    match accesses
        .iter_mut()
        .find(|a| a.node == node && a.strides == strides)
    {
        Some(a) => {
            a.count += 1;
            if a.access != access {
                a.access = AccessType::ReadWrite;
            }
        }
        None => accesses.push(BufferAccess {
            node,
            access,
            strides: match spare.pop() {
                Some(mut v) => {
                    v.extend_from_slice(strides);
                    v
                }
                None => strides.to_vec(),
            },
            count: 1,
            buffer_elems: dag.nodes[node].num_elements(),
            packed,
        }),
    }
}

/// Sets every lane of `frame` to `g` of it; with `quotient`, a lane equal
/// to lane 0 takes lane 0's result (see [`Analyser::fold_with`]).
#[inline(always)]
fn map_frame(frame: &mut [i64], quotient: bool, g: impl Fn(i64) -> i64) {
    let x0 = frame[0];
    let v0 = g(x0);
    for x in frame {
        *x = if quotient && *x == x0 { v0 } else { g(*x) };
    }
}

/// Flat element stride of the access for each loop variable, measured by
/// finite differences of the flattened index expression.
fn flat_strides(program: &Program, node: NodeId, indices: &[Expr], vars: &[VarId]) -> Vec<i64> {
    let shape = program.dag.nodes[node].shape();
    let mut dim_strides = vec![1i64; shape.len()];
    for d in (0..shape.len().saturating_sub(1)).rev() {
        dim_strides[d] = dim_strides[d + 1] * shape[d + 1];
    }
    let flatten = |env: &dyn Fn(VarId) -> i64| -> i64 {
        indices
            .iter()
            .zip(&dim_strides)
            .map(|(ix, &s)| eval_int(ix, env) * s)
            .sum()
    };
    let base = flatten(&|_| 0);
    vars.iter()
        .map(|&v| {
            let with_v = flatten(&|x| if x == v { 1 } else { 0 });
            with_v - base
        })
        .collect()
}

/// Integer evaluation of an index expression under a variable assignment.
/// Non-integer constructs evaluate to 0 (they do not appear in indices
/// produced by lowering).
fn eval_int(e: &Expr, env: &dyn Fn(VarId) -> i64) -> i64 {
    match e {
        Expr::IntConst(v) => *v,
        Expr::FloatConst(v) => *v as i64,
        Expr::LoopVar(v) => env(*v),
        Expr::Axis(_) | Expr::Load { .. } | Expr::Select { .. } | Expr::Unary { .. } => 0,
        Expr::Cmp { .. } => 0,
        Expr::Binary { op, lhs, rhs } => eval_binary(*op, eval_int(lhs, env), eval_int(rhs, env)),
    }
}

/// [`eval_int`]'s arithmetic: division and remainder by zero are 0.
#[inline(always)]
fn eval_binary(op: BinOp, l: i64, r: i64) -> i64 {
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => {
            if r == 0 {
                0
            } else {
                l / r
            }
        }
        BinOp::Mod => {
            if r == 0 {
                0
            } else {
                l % r
            }
        }
        BinOp::Min => l.min(r),
        BinOp::Max => l.max(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;
    use crate::lower::lower;
    use crate::state::State;
    use crate::steps::Step;
    use std::sync::Arc;

    fn matmul_program() -> Program {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 32]);
        let w = b.placeholder("B", &[32, 16]);
        b.compute_reduce("C", &[64, 16], &[32], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        let dag = Arc::new(b.build().unwrap());
        let st = State::new(dag);
        lower(&st).unwrap()
    }

    #[test]
    fn strides_of_naive_matmul() {
        let prog = matmul_program();
        let an = analyze(&prog);
        // Two stores: init (C) and compute (C += A*B).
        assert_eq!(an.len(), 2);
        let compute = an.iter().find(|s| s.reduce.is_some()).unwrap();
        assert_eq!(compute.loops.len(), 3); // i, j, k
                                            // Store C[i, j]: strides (16, 1, 0).
        let store = &compute.accesses[0];
        assert_eq!(store.access, AccessType::ReadWrite);
        assert_eq!(store.strides, vec![16, 1, 0]);
        // Load A[i, k]: strides (32, 0, 1).
        let a = compute.accesses.iter().find(|x| x.node == 0).unwrap();
        assert_eq!(a.strides, vec![32, 0, 1]);
        // Load B[k, j]: strides (0, 1, 16).
        let b = compute.accesses.iter().find(|x| x.node == 1).unwrap();
        assert_eq!(b.strides, vec![0, 1, 16]);
    }

    #[test]
    fn touched_footprints() {
        let prog = matmul_program();
        let an = analyze(&prog);
        let compute = an.iter().find(|s| s.reduce.is_some()).unwrap();
        let mut table = Footprints::default();
        table.fill(compute, 16);
        let cell = |node, lvl| {
            let k = compute.accesses.iter().position(|x| x.node == node);
            let c = table.at(k.unwrap(), lvl);
            (c.elems, c.min_stride, c.lines, c.outer)
        };
        // Innermost k loop touches 32 A-elements, 2 lines of 16, once per
        // i (j does not move A); the full nest touches all 2048.
        assert_eq!(cell(0, 2), (32.0, 1, 2.0, 64.0));
        assert_eq!(cell(0, 0), (2048.0, 1, 128.0, 1.0));
        // B is invariant to i: full nest touches 512 B-elements; below the
        // innermost loop one, a new one in each of the 512 (j, k).
        assert_eq!(cell(1, 0), (512.0, 1, 32.0, 1.0));
        assert_eq!(cell(1, 3), (1.0, 0, 1.0, 512.0));
        assert_eq!(table.iterations(2), compute.trip_count());
    }

    #[test]
    fn trip_count_and_flops() {
        let prog = matmul_program();
        let an = analyze(&prog);
        let compute = an.iter().find(|s| s.reduce.is_some()).unwrap();
        assert_eq!(compute.trip_count(), (64 * 16 * 32) as f64);
        assert_eq!(compute.flops_per_iter(), 2.0); // mul + reduce add
    }

    #[test]
    fn independent_accumulators_reflect_unrolled_spatial_loops() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 32]);
        let w = b.placeholder("B", &[32, 16]);
        b.compute_reduce("C", &[64, 16], &[32], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        let dag = Arc::new(b.build().unwrap());
        let mut st = State::new(dag);
        // Split j, put j.1 innermost with vectorization: C's reduction gains
        // 8 independent accumulators.
        st.apply(Step::Split {
            node: "C".into(),
            iter: "j".into(),
            lengths: vec![8],
        })
        .unwrap();
        let sid = st.stage_by_node_name("C").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        let j0 = st.stages[sid].iter_by_name("j.0").unwrap();
        let j1 = st.stages[sid].iter_by_name("j.1").unwrap();
        let k = st.stages[sid].iter_by_name("k").unwrap();
        st.reorder(sid, &[i, j0, k, j1]).unwrap();
        st.apply(Step::Annotate {
            node: "C".into(),
            iter: "j.1".into(),
            ann: Annotation::Vectorize,
        })
        .unwrap();
        let prog = lower(&st).unwrap();
        let an = analyze(&prog);
        let compute = an.iter().find(|s| s.reduce.is_some()).unwrap();
        assert_eq!(compute.independent_accumulators(), 8.0);
        assert_eq!(compute.vectorized_level().map(|(_, e)| e), Some(8));
    }

    #[test]
    fn parallel_extent_combines_leading_parallel_loops() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[16, 8]);
        b.compute("R", &[16, 8], |ax| {
            Expr::max(
                Expr::load(a, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        let dag = Arc::new(b.build().unwrap());
        let mut st = State::new(dag);
        let sid = st.stage_by_node_name("R").unwrap();
        let i = st.stages[sid].iter_by_name("i").unwrap();
        let j = st.stages[sid].iter_by_name("j").unwrap();
        let f = st.fuse(sid, &[i, j]).unwrap();
        st.annotate(sid, f, Annotation::Parallel).unwrap();
        let prog = lower(&st).unwrap();
        let an = analyze(&prog);
        assert_eq!(an[0].parallel_extent(), 128);
    }
}
