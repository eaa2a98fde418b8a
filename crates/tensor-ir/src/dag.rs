//! Compute DAG: the declarative description of a (sub)graph of tensor
//! operators, plus the static analyses used by sketch-generation rules.
//!
//! A [`ComputeDag`] mirrors the role of TVM's compute DAG in the paper: nodes
//! are placeholders or compute definitions, and edges are implied by
//! [`Expr::Load`] references inside compute bodies.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use serde::{Deserialize, Serialize};

use crate::expr::{Expr, NodeId};
use crate::name::Name;

/// Associative reduction operators supported by compute nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Reducer {
    /// Sum reduction (identity 0).
    Sum,
    /// Max reduction (identity -inf).
    Max,
    /// Min reduction (identity +inf).
    Min,
}

impl Reducer {
    /// Identity element of the reduction.
    pub fn identity(&self) -> f32 {
        match self {
            Reducer::Sum => 0.0,
            Reducer::Max => f32::NEG_INFINITY,
            Reducer::Min => f32::INFINITY,
        }
    }

    /// Combines an accumulator with a new value.
    pub fn combine(&self, acc: f32, v: f32) -> f32 {
        match self {
            Reducer::Sum => acc + v,
            Reducer::Max => acc.max(v),
            Reducer::Min => acc.min(v),
        }
    }
}

/// The computation performed by a compute node.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct ComputeSpec {
    /// Output shape (extent of each spatial axis).
    pub shape: Vec<i64>,
    /// Extents of the reduction axes (empty for element-wise nodes).
    pub reduce_extents: Vec<i64>,
    /// Reduction operator; `None` iff `reduce_extents` is empty.
    pub reducer: Option<Reducer>,
    /// Body expression. For reductions this is the per-element value that is
    /// folded by [`ComputeSpec::reducer`]; axes `0..shape.len()` are spatial
    /// and the rest are reduction axes.
    pub body: Expr,
    /// Human-readable axis names, spatial then reduction.
    pub axis_names: Vec<String>,
}

impl ComputeSpec {
    /// Number of spatial axes.
    pub fn num_spatial(&self) -> usize {
        self.shape.len()
    }

    /// Extent of axis `i` (spatial axes first, then reduction axes).
    pub fn axis_extent(&self, i: usize) -> i64 {
        if i < self.shape.len() {
            self.shape[i]
        } else {
            self.reduce_extents[i - self.shape.len()]
        }
    }

    /// Product of all spatial extents.
    pub fn spatial_volume(&self) -> i64 {
        self.shape.iter().product()
    }

    /// Product of all reduction extents (1 when there is no reduction).
    pub fn reduce_volume(&self) -> i64 {
        self.reduce_extents.iter().product()
    }
}

/// A node in the compute DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// An input tensor.
    Placeholder {
        /// Tensor shape.
        shape: Vec<i64>,
        /// Whether the tensor holds constant data (e.g. trained weights).
        /// Constant tensors may have their layout rewritten (§4.2).
        is_const: bool,
        /// Known constant contents (row-major), e.g. the fixed transform
        /// matrices of Winograd convolution. The interpreter initializes
        /// the buffer from these values; `None` means the data is an
        /// external input.
        data: Option<Vec<f32>>,
    },
    /// A computed tensor.
    Compute(ComputeSpec),
}

// By hand because of the `f32` contents, hashed by bit pattern.
impl Hash for NodeKind {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            NodeKind::Placeholder {
                shape,
                is_const,
                data,
            } => {
                (0u8, shape, is_const, data.is_some()).hash(h);
                for v in data.iter().flatten() {
                    v.to_bits().hash(h);
                }
            }
            NodeKind::Compute(c) => (1u8, c).hash(h),
        }
    }
}

/// A named node of the DAG.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub struct Node {
    /// Stable identifier (index into [`ComputeDag::nodes`]).
    pub id: NodeId,
    /// Unique, human-readable name (used to address nodes in transform steps).
    pub name: String,
    /// Node payload.
    pub kind: NodeKind,
}

impl Node {
    /// Shape of the tensor produced by this node.
    pub fn shape(&self) -> &[i64] {
        match &self.kind {
            NodeKind::Placeholder { shape, .. } => shape,
            NodeKind::Compute(c) => &c.shape,
        }
    }

    /// Number of elements in the produced tensor.
    pub fn num_elements(&self) -> i64 {
        self.shape().iter().product()
    }

    /// Returns the compute spec, or `None` for placeholders.
    pub fn compute(&self) -> Option<&ComputeSpec> {
        match &self.kind {
            NodeKind::Compute(c) => Some(c),
            NodeKind::Placeholder { .. } => None,
        }
    }

    /// Whether this node is a placeholder holding constant data.
    pub fn is_const_placeholder(&self) -> bool {
        matches!(self.kind, NodeKind::Placeholder { is_const: true, .. })
    }

    /// Known constant contents, if any.
    pub fn const_data(&self) -> Option<&[f32]> {
        match &self.kind {
            NodeKind::Placeholder { data: Some(d), .. } => Some(d),
            _ => None,
        }
    }
}

/// Whether an index expression is affine in at most one axis variable
/// (axis, constant, or +/-/* combinations thereof).
fn is_affine_single_axis(e: &Expr) -> bool {
    fn walk(e: &Expr, axes: &mut usize) -> bool {
        match e {
            Expr::IntConst(_) => true,
            Expr::Axis(_) => {
                *axes += 1;
                true
            }
            Expr::Binary { op, lhs, rhs } => {
                matches!(
                    op,
                    crate::expr::BinOp::Add | crate::expr::BinOp::Sub | crate::expr::BinOp::Mul
                ) && walk(lhs, axes)
                    && walk(rhs, axes)
            }
            _ => false,
        }
    }
    let mut axes = 0;
    walk(e, &mut axes) && axes <= 1
}

/// The structural step that derives one DAG from another: the key of the
/// memo behind [`ComputeDag::derived`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Derivation {
    /// `Step::CacheWrite` on the node.
    CacheWrite { node: NodeId },
    /// `Step::Rfactor` on the node with the given inner factor.
    Rfactor { node: NodeId, factor: i64 },
}

/// Memo of [`ComputeDag::derived`]. It belongs to one DAG value: a clone
/// starts with an empty one.
#[derive(Default)]
struct DerivedDags(RwLock<HashMap<Derivation, Arc<ComputeDag>>>);

impl Clone for DerivedDags {
    fn clone(&self) -> Self {
        DerivedDags::default()
    }
}

impl fmt::Debug for DerivedDags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DerivedDags").finish_non_exhaustive()
    }
}

/// What the scheduling steps look up per node, on every program of a task:
/// its interned name and axis names, and its edges. Built on first use
/// from the nodes alone.
#[derive(Debug)]
struct NodeIndex {
    names: Vec<Name>,
    /// The names of each node's axes, spatial then reduce (none for a
    /// placeholder).
    axes: Vec<Vec<Name>>,
    /// Nodes loaded by each node's body, in order of first load.
    producers: Vec<Vec<NodeId>>,
    /// Nodes whose body loads each node, ascending.
    consumers: Vec<Vec<NodeId>>,
}

impl NodeIndex {
    fn of(nodes: &[Node]) -> NodeIndex {
        let producers: Vec<Vec<NodeId>> = nodes
            .iter()
            .map(|n| {
                n.compute()
                    .map(|c| c.body.loaded_nodes())
                    .unwrap_or_default()
            })
            .collect();
        let mut consumers = vec![Vec::new(); nodes.len()];
        for (c, loaded) in producers.iter().enumerate() {
            for &p in loaded {
                consumers[p].push(c);
            }
        }
        NodeIndex {
            names: nodes.iter().map(|n| Name::new(&n.name)).collect(),
            axes: nodes
                .iter()
                .map(|n| match n.compute() {
                    Some(c) => c.axis_names.iter().map(|a| Name::new(a)).collect(),
                    None => Vec::new(),
                })
                .collect(),
            producers,
            consumers,
        }
    }
}

/// Memo of [`NodeIndex`]. Like [`DerivedDags`], a clone starts empty.
#[derive(Default)]
struct IndexMemo(OnceLock<NodeIndex>);

impl Clone for IndexMemo {
    fn clone(&self) -> Self {
        IndexMemo::default()
    }
}

impl fmt::Debug for IndexMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexMemo").finish_non_exhaustive()
    }
}

/// A directed acyclic graph of tensor computations.
///
/// Nodes are stored in topological order (producers before consumers); the
/// builder validates this. A DAG is immutable once built and is shared by
/// `Arc`; the structural scheduling steps (cache-write, rfactor) move a
/// state to a derived DAG (`ComputeDag::derived`) and leave this one as
/// it was.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComputeDag {
    /// All nodes, producers before consumers. Not to be written once the
    /// DAG is in use: the memos below do not see a direct write.
    pub nodes: Vec<Node>,
    /// Memo of [`ComputeDag::fingerprint`].
    #[serde(skip)]
    fingerprint: OnceLock<u64>,
    /// Memo of [`ComputeDag::derived`].
    #[serde(skip)]
    derived: DerivedDags,
    /// Memo of the per-node lookups ([`ComputeDag::name_of`],
    /// [`ComputeDag::consumers`], …).
    #[serde(skip)]
    index: IndexMemo,
}

impl PartialEq for ComputeDag {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

impl ComputeDag {
    pub(crate) fn new(nodes: Vec<Node>) -> ComputeDag {
        ComputeDag {
            nodes,
            fingerprint: OnceLock::new(),
            derived: DerivedDags::default(),
            index: IndexMemo::default(),
        }
    }

    /// Content fingerprint: a hash of every node's name, shapes and body,
    /// so equal DAGs built twice agree and DAGs that differ in one extent
    /// do not. Computed on first use and kept — it seeds the signature of
    /// every [`crate::State`] created for this DAG.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = DefaultHasher::new();
            self.nodes.hash(&mut h);
            h.finish()
        })
    }

    /// The nodes, for the structural steps to edit; forgets every memo.
    pub(crate) fn nodes_mut(&mut self) -> &mut Vec<Node> {
        self.fingerprint = OnceLock::new();
        self.derived = DerivedDags::default();
        self.index = IndexMemo::default();
        &mut self.nodes
    }

    fn index(&self) -> &NodeIndex {
        self.index.0.get_or_init(|| NodeIndex::of(&self.nodes))
    }

    /// The DAG the structural step `key` derives from this one: `derive`
    /// edits the nodes of a copy the first time the key is asked for, and
    /// every later caller — any program of any sketch that runs the same
    /// step on this DAG — is handed the same `Arc`. `derive` must be a
    /// function of `key` and the nodes alone, so that a hit and a miss give
    /// equal content. The derived DAG lives as long as this one.
    pub(crate) fn derived(
        &self,
        key: Derivation,
        derive: impl FnOnce(&mut Vec<Node>),
    ) -> Arc<ComputeDag> {
        // Poison-tolerant: the one write is a single insert, so the map is
        // consistent whenever a lock holder panicked.
        let memo = &self.derived.0;
        if let Some(hit) = memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return hit.clone();
        }
        // Derived outside the lock; of threads racing here the first to
        // insert wins and the others drop their (equal) copies.
        let mut dag = self.clone();
        derive(dag.nodes_mut());
        memo.write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert_with(|| Arc::new(dag))
            .clone()
    }

    /// Looks up a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<&Node> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// Looks up a node id by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// [`ComputeDag::node_id`] of an interned name: compares handles.
    pub fn find_node(&self, name: Name) -> Option<NodeId> {
        self.index().names.iter().position(|&n| n == name)
    }

    /// The interned name of node `id`.
    pub fn name_of(&self, id: NodeId) -> Name {
        self.index().names[id]
    }

    /// The interned names of node `id`'s axes, spatial then reduce (none
    /// for a placeholder).
    pub fn axes(&self, id: NodeId) -> &[Name] {
        &self.index().axes[id]
    }

    /// Direct consumers of `id` (nodes whose body loads `id`), ascending.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.index().consumers[id]
    }

    /// Direct producers of `id` (nodes loaded by its body), in order of
    /// first load.
    pub fn producers(&self, id: NodeId) -> &[NodeId] {
        &self.index().producers[id]
    }

    /// Output nodes (compute nodes with no consumers).
    pub fn outputs(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.compute().is_some() && self.consumers(n.id).is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Total floating point operations performed by one evaluation of the DAG.
    pub fn flop_count(&self) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| n.compute().map(|c| (n, c)))
            .map(|(_, c)| {
                let per_elem = c.body.op_counts().total_flops() as f64
                    + if c.reducer.is_some() { 1.0 } else { 0.0 };
                per_elem * c.spatial_volume() as f64 * c.reduce_volume() as f64
            })
            .sum()
    }

    /// `IsStrictInlinable(S, i)`: a simple element-wise node that can always
    /// be inlined into its consumers (e.g. ReLU, bias add, padding).
    ///
    /// Conditions: it computes no reduction and every load in its body uses
    /// *simple* indices (each index is a single axis reference or a
    /// constant), so inlining never duplicates non-trivial index math.
    pub fn is_strict_inlinable(&self, id: NodeId) -> bool {
        let Some(c) = self.nodes[id].compute() else {
            return false;
        };
        if !c.reduce_extents.is_empty() {
            return false;
        }
        // Every load index must be an affine function of at most one axis
        // (e.g. `h - pad`, `w * 2`), so inlining duplicates no interesting
        // index math. Padding nodes (select-guarded shifted loads) qualify.
        let mut simple = true;
        c.body.visit(&mut |e| {
            if let Expr::Load { indices, .. } = e {
                for ix in indices {
                    if !is_affine_single_axis(ix) {
                        simple = false;
                    }
                }
            }
        });
        simple
    }

    /// `HasDataReuse(S, i)`: a compute-intensive node with plentiful data
    /// reuse (e.g. matmul, conv2d) that deserves multi-level tiling.
    ///
    /// We require at least one reduction axis: every element of the inputs is
    /// then used by several output elements, which is exactly the reuse that
    /// multi-level tiling exploits.
    pub fn has_data_reuse(&self, id: NodeId) -> bool {
        self.nodes[id]
            .compute()
            .map(|c| !c.reduce_extents.is_empty())
            .unwrap_or(false)
    }

    /// `HasFusibleConsumer(S, i)`: node `i` has exactly one consumer and that
    /// consumer accesses `i` element-wise with identity spatial indices, so
    /// the consumer can be fused into `i`'s tile structure.
    pub fn has_fusible_consumer(&self, id: NodeId) -> bool {
        self.fusible_consumer(id).is_some()
    }

    /// Returns the unique fusible consumer of `id`, if any.
    pub fn fusible_consumer(&self, id: NodeId) -> Option<NodeId> {
        let consumers = self.consumers(id);
        if consumers.len() != 1 {
            return None;
        }
        let cons = consumers[0];
        let c = self.nodes[cons].compute()?;
        // The consumer must be elementwise (no reduction) and every access to
        // `id` must be the identity on the consumer's spatial axes.
        if !c.reduce_extents.is_empty() {
            return None;
        }
        if c.shape != self.nodes[id].shape() {
            return None;
        }
        let mut ok = true;
        c.body.visit(&mut |e| {
            if let Expr::Load { node, indices } = e {
                if *node == id {
                    let identity = indices.len() == c.shape.len()
                        && indices
                            .iter()
                            .enumerate()
                            .all(|(d, ix)| matches!(ix, Expr::Axis(a) if *a == d));
                    if !identity {
                        ok = false;
                    }
                }
            }
        });
        if ok {
            Some(cons)
        } else {
            None
        }
    }

    /// `HasMoreReductionParallel(S, i)`: little parallelism in space
    /// dimensions but ample parallelism in reduction dimensions (e.g. the
    /// 2-norm of a matrix, or `C[2,2] = A[2,512] x B[512,2]`).
    pub fn has_more_reduction_parallel(&self, id: NodeId) -> bool {
        self.nodes[id]
            .compute()
            .map(|c| {
                let s = c.spatial_volume();
                let r = c.reduce_volume();
                s < 256 && r >= 16 * s.max(1)
            })
            .unwrap_or(false)
    }

    /// Validates internal consistency (topological order, axis arity,
    /// load arity). Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id != i {
                return Err(format!("node {} has id {}", i, n.id));
            }
            if seen.insert(&n.name, i).is_some() {
                return Err(format!("duplicate node name {:?}", n.name));
            }
            if let Some(c) = n.compute() {
                if c.reducer.is_some() == c.reduce_extents.is_empty() {
                    return Err(format!(
                        "node {:?}: reducer/reduce_extents mismatch",
                        n.name
                    ));
                }
                if c.axis_names.len() != c.shape.len() + c.reduce_extents.len() {
                    return Err(format!("node {:?}: axis_names arity mismatch", n.name));
                }
                let mut err = None;
                let n_axes = c.shape.len() + c.reduce_extents.len();
                c.body.visit(&mut |e| match e {
                    Expr::Load { node, indices } => {
                        if *node >= i {
                            err = Some(format!(
                                "node {:?} loads node {} which is not earlier in topo order",
                                n.name, node
                            ));
                        } else if indices.len() != self.nodes[*node].shape().len() {
                            err = Some(format!(
                                "node {:?} loads node {:?} with wrong arity",
                                n.name, self.nodes[*node].name
                            ));
                        }
                    }
                    Expr::Axis(a) if *a >= n_axes => {
                        err = Some(format!("node {:?} references axis {}", n.name, a));
                    }
                    Expr::LoopVar(_) => {
                        err = Some(format!("node {:?} body contains a loop var", n.name));
                    }
                    _ => {}
                });
                if let Some(e) = err {
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    fn matmul_relu() -> ComputeDag {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[64, 32]);
        let w = b.constant("B", &[32, 16]);
        let c = b.compute_reduce("C", &[64, 16], &[32], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
        });
        b.compute("D", &[64, 16], |ax| {
            Expr::max(
                Expr::load(c, vec![ax[0].clone(), ax[1].clone()]),
                Expr::float(0.0),
            )
        });
        b.build().unwrap()
    }

    #[test]
    fn predicates_on_matmul_relu() {
        let dag = matmul_relu();
        let c = dag.node_id("C").unwrap();
        let d = dag.node_id("D").unwrap();
        assert!(dag.has_data_reuse(c));
        assert!(!dag.has_data_reuse(d));
        assert!(dag.is_strict_inlinable(d));
        assert!(!dag.is_strict_inlinable(c));
        assert_eq!(dag.fusible_consumer(c), Some(d));
        assert!(!dag.has_more_reduction_parallel(c));
    }

    #[test]
    fn small_spatial_large_reduce_triggers_rfactor_predicate() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[8, 512]);
        let d = b.placeholder("D", &[512, 4]);
        b.compute_reduce("E", &[8, 4], &[512], Reducer::Sum, |ax| {
            Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
                * Expr::load(d, vec![ax[2].clone(), ax[1].clone()])
        });
        let dag = b.build().unwrap();
        let e = dag.node_id("E").unwrap();
        assert!(dag.has_more_reduction_parallel(e));
    }

    #[test]
    fn flop_count_matmul() {
        let dag = matmul_relu();
        // Matmul: 64*16*32 iterations x (1 mul + 1 reduce-add) + relu: 64*16 cmp.
        let expect = (64.0 * 16.0 * 32.0) * 2.0 + 64.0 * 16.0;
        assert!((dag.flop_count() - expect).abs() < 1e-6);
    }

    #[test]
    fn outputs_and_consumers() {
        let dag = matmul_relu();
        let c = dag.node_id("C").unwrap();
        let d = dag.node_id("D").unwrap();
        assert_eq!(dag.outputs(), vec![d]);
        assert_eq!(dag.consumers(c), vec![d]);
        assert_eq!(dag.producers(d), vec![c]);
    }

    #[test]
    fn validate_catches_bad_order() {
        let mut dag = matmul_relu();
        // Make node D load a node that comes after it.
        let d = dag.node_id("D").unwrap();
        if let NodeKind::Compute(c) = &mut dag.nodes[d].kind {
            c.body = Expr::load(d, vec![Expr::axis(0), Expr::axis(1)]);
        }
        assert!(dag.validate().is_err());
    }
}
