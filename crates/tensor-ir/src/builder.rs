//! Ergonomic builder for compute DAGs, analogous to the paper's Figure 1
//! `compute((N, M), lambda i, j: sum(A[i, k] * B[k, j], [k]))`.

use crate::dag::{ComputeDag, ComputeSpec, Node, NodeKind, Reducer};
use crate::expr::{Expr, NodeId};

/// Incrementally builds a [`ComputeDag`].
///
/// # Examples
///
/// ```
/// use tensor_ir::{DagBuilder, Expr, Reducer};
///
/// let mut b = DagBuilder::new();
/// let a = b.placeholder("A", &[128, 64]);
/// let w = b.constant("W", &[64, 32]);
/// let c = b.compute_reduce("C", &[128, 32], &[64], Reducer::Sum, |ax| {
///     Expr::load(a, vec![ax[0].clone(), ax[2].clone()])
///         * Expr::load(w, vec![ax[2].clone(), ax[1].clone()])
/// });
/// b.compute("D", &[128, 32], |ax| {
///     Expr::max(Expr::load(c, vec![ax[0].clone(), ax[1].clone()]), Expr::float(0.0))
/// });
/// let dag = b.build().unwrap();
/// assert_eq!(dag.nodes.len(), 4);
/// ```
#[derive(Debug, Default)]
pub struct DagBuilder {
    nodes: Vec<Node>,
}

/// Default axis names used when the caller does not provide any:
/// spatial axes get `i, j, k, l, ...` style names derived from position.
fn default_axis_names(n_spatial: usize, n_reduce: usize) -> Vec<String> {
    let spatial = ["i", "j", "l", "m", "n", "o", "p", "q"];
    let reduce = ["k", "r", "s", "t", "u", "v"];
    let mut names = Vec::with_capacity(n_spatial + n_reduce);
    for d in 0..n_spatial {
        if d < spatial.len() {
            names.push(spatial[d].to_string());
        } else {
            names.push(format!("ax{}", d));
        }
    }
    for d in 0..n_reduce {
        if d < reduce.len() {
            names.push(reduce[d].to_string());
        } else {
            names.push(format!("rax{}", d));
        }
    }
    names
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an input placeholder with the given shape.
    pub fn placeholder(&mut self, name: &str, shape: &[i64]) -> NodeId {
        self.push(
            name,
            NodeKind::Placeholder {
                shape: shape.to_vec(),
                is_const: false,
                data: None,
            },
        )
    }

    /// Adds a constant-tensor placeholder (e.g. trained weights); constant
    /// tensors are eligible for layout rewriting (§4.2 of the paper).
    pub fn constant(&mut self, name: &str, shape: &[i64]) -> NodeId {
        self.push(
            name,
            NodeKind::Placeholder {
                shape: shape.to_vec(),
                is_const: true,
                data: None,
            },
        )
    }

    /// Adds a constant tensor with known contents (row-major), e.g. the
    /// fixed transform matrices of a Winograd convolution.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` does not match the shape's element count.
    pub fn constant_data(&mut self, name: &str, shape: &[i64], values: Vec<f32>) -> NodeId {
        assert_eq!(
            values.len() as i64,
            shape.iter().product::<i64>(),
            "constant data size mismatch for {name}"
        );
        self.push(
            name,
            NodeKind::Placeholder {
                shape: shape.to_vec(),
                is_const: true,
                data: Some(values),
            },
        )
    }

    /// Adds an element-wise compute node. The closure receives one
    /// [`Expr::Axis`] per output dimension.
    pub fn compute(
        &mut self,
        name: &str,
        shape: &[i64],
        body: impl FnOnce(&[Expr]) -> Expr,
    ) -> NodeId {
        let axes: Vec<Expr> = (0..shape.len()).map(Expr::axis).collect();
        let body = body(&axes);
        self.push(
            name,
            NodeKind::Compute(ComputeSpec {
                shape: shape.to_vec(),
                reduce_extents: vec![],
                reducer: None,
                body,
                axis_names: default_axis_names(shape.len(), 0),
            }),
        )
    }

    /// Adds a reduction compute node. The closure receives spatial axes
    /// followed by reduction axes.
    pub fn compute_reduce(
        &mut self,
        name: &str,
        shape: &[i64],
        reduce: &[i64],
        reducer: Reducer,
        body: impl FnOnce(&[Expr]) -> Expr,
    ) -> NodeId {
        let axes: Vec<Expr> = (0..shape.len() + reduce.len()).map(Expr::axis).collect();
        let body = body(&axes);
        self.push(
            name,
            NodeKind::Compute(ComputeSpec {
                shape: shape.to_vec(),
                reduce_extents: reduce.to_vec(),
                reducer: Some(reducer),
                body,
                axis_names: default_axis_names(shape.len(), reduce.len()),
            }),
        )
    }

    /// Adds a compute node with explicit axis names.
    pub fn compute_named(
        &mut self,
        name: &str,
        shape: &[i64],
        reduce: &[i64],
        reducer: Option<Reducer>,
        axis_names: &[&str],
        body: impl FnOnce(&[Expr]) -> Expr,
    ) -> NodeId {
        let axes: Vec<Expr> = (0..shape.len() + reduce.len()).map(Expr::axis).collect();
        let body = body(&axes);
        self.push(
            name,
            NodeKind::Compute(ComputeSpec {
                shape: shape.to_vec(),
                reduce_extents: reduce.to_vec(),
                reducer,
                body,
                axis_names: axis_names.iter().map(|s| s.to_string()).collect(),
            }),
        )
    }

    /// Finalizes the DAG, validating topological order and arities.
    pub fn build(self) -> Result<ComputeDag, String> {
        let dag = ComputeDag::new(self.nodes);
        dag.validate()?;
        Ok(dag)
    }

    fn push(&mut self, name: &str, kind: NodeKind) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            name: name.to_string(),
            kind,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_sequential_ids() {
        let mut b = DagBuilder::new();
        let a = b.placeholder("A", &[4]);
        let c = b.compute("C", &[4], |ax| Expr::load(a, vec![ax[0].clone()]));
        assert_eq!(a, 0);
        assert_eq!(c, 1);
        let dag = b.build().unwrap();
        assert_eq!(dag.nodes[1].name, "C");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = DagBuilder::new();
        b.placeholder("A", &[4]);
        b.placeholder("A", &[4]);
        assert!(b.build().is_err());
    }

    #[test]
    fn default_axis_names_cover_high_rank() {
        let names = default_axis_names(10, 8);
        assert_eq!(names.len(), 18);
        assert_eq!(names[0], "i");
        assert_eq!(names[9], "ax9");
        assert_eq!(names[10], "k");
        assert_eq!(names[17], "rax7");
    }
}
