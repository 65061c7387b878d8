//! Graph neural network building blocks: graph containers, batching,
//! [`GcnLayer`] (Kipf & Welling) and [`RelGatLayer`] — graph attention with
//! edge features, the "RelGAT" architecture of the paper's TCAD surrogates.

use std::sync::Arc;

use stco_numerics::{CsrMatrix, Dense, Matrix, Scalar};

use crate::ad::{segment_softmax_forward, spmm_forward, Graph, NodeId};
use crate::layers::{Activation, LayerNorm, Linear};
use crate::Params;

/// A featurized graph: node features, directed edges and edge features.
///
/// Message passing sends information from `edges[k].0` (source) to
/// `edges[k].1` (destination). Self-loops should be included explicitly
/// (the encoders in `stco-surrogate` add them with zero edge features).
#[derive(Debug, Clone, Default)]
pub struct GraphData {
    /// `[num_nodes × node_dim]` node feature matrix (row-major).
    pub node_features: Matrix,
    /// Directed `(src, dst)` pairs.
    pub edges: Vec<(usize, usize)>,
    /// `[num_edges × edge_dim]` edge feature matrix.
    pub edge_features: Matrix,
}

impl GraphData {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_features.rows()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Appends self-loops `(i, i)` for every node, with zero edge features.
    pub fn add_self_loops(&mut self) {
        let n = self.num_nodes();
        let de = self.edge_features.cols();
        // Move the backing buffer out instead of copying it: self-loop
        // insertion runs once per encoded device/cell graph, which makes
        // this a hot path during dataset generation.
        let mut data = std::mem::take(&mut self.edge_features).into_vec();
        for i in 0..n {
            self.edges.push((i, i));
            data.extend(std::iter::repeat_n(0.0, de));
        }
        self.edge_features = Matrix::from_vec(self.edges.len(), de, data);
    }

    /// Validates edge indices against the node count.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is out of range or the edge-feature row
    /// count disagrees with the edge list.
    pub fn assert_consistent(&self) {
        let n = self.num_nodes();
        for &(s, d) in &self.edges {
            assert!(s < n && d < n, "edge ({s},{d}) out of {n} nodes");
        }
        assert_eq!(
            self.edge_features.rows(),
            self.edges.len(),
            "one edge-feature row per edge"
        );
    }

    /// Symmetrically-normalized adjacency with self-loops,
    /// `D^{-1/2}(A+I)D^{-1/2}`, the GCN propagation operator.
    pub fn normalized_adjacency(&self) -> CsrMatrix {
        block_normalized_adjacency([(self.num_nodes(), self.edges.as_slice())])
    }
}

/// The normalized adjacency of a disjoint union of graphs, each given as
/// `(num_nodes, edges)`: the block-diagonal stack of every graph's
/// [`GraphData::normalized_adjacency`], assembled block by block.
///
/// Each edge `(s, d)` stamps entry `(d, s)`; every node without a
/// self-loop gets one; a row's degree counts its stamps, duplicates
/// included, and a duplicated entry is the sum of its equal stamps
/// `1/(√deg_d·√deg_s)`, added in turn.
///
/// # Panics
///
/// Panics if an edge endpoint is out of its graph's node range.
pub fn block_normalized_adjacency<'a>(
    graphs: impl IntoIterator<Item = (usize, &'a [(usize, usize)])>,
) -> CsrMatrix {
    let (mut row_ptr, mut col_idx, mut values) = (vec![0], Vec::new(), Vec::new());
    let mut offset = 0;
    for (n, edges) in graphs {
        // Count the stamps per row, bucket their columns, sort each row.
        let mut has_self = vec![false; n];
        let mut start = vec![0usize; n + 1];
        for &(s, d) in edges {
            assert!(s < n && d < n, "edge ({s},{d}) out of {n} nodes");
            has_self[s] |= s == d;
            start[d + 1] += 1;
        }
        for (i, &h) in has_self.iter().enumerate() {
            start[i + 1] += usize::from(!h);
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut cols = vec![0usize; start[n]];
        let stamps = edges.iter().map(|&(s, d)| (d, s));
        let loops = (0..n).filter(|&i| !has_self[i]).map(|i| (i, i));
        for (r, c) in stamps.chain(loops) {
            cols[next[r]] = c;
            next[r] += 1;
        }
        let sqrt_deg: Vec<f64> = start
            .windows(2)
            .map(|w| ((w[1] - w[0]) as f64).sqrt())
            .collect();
        for r in 0..n {
            let row = &mut cols[start[r]..start[r + 1]];
            row.sort_unstable();
            for (k, &c) in row.iter().enumerate() {
                let v = 1.0 / (sqrt_deg[r] * sqrt_deg[c]);
                if k > 0 && row[k - 1] == c {
                    let last = values.len() - 1;
                    values[last] += v;
                } else {
                    col_idx.push(c + offset);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        offset += n;
    }
    CsrMatrix::from_parts(offset, offset, row_ptr, col_idx, values)
}

/// One graph-convolution layer: `H' = σ(Â·H·W + b)` with
/// `Â = D^{-1/2}(A+I)D^{-1/2}`.
///
/// The paper's cell-library model stacks three of these followed by
/// per-metric MLP heads.
#[derive(Debug, Clone)]
pub struct GcnLayer {
    linear: Linear,
    activation: Activation,
}

impl GcnLayer {
    /// Allocates a GCN layer mapping `in_dim → out_dim`.
    pub fn new(params: &mut Params, in_dim: usize, out_dim: usize, activation: Activation) -> Self {
        GcnLayer {
            linear: Linear::new(params, in_dim, out_dim),
            activation,
        }
    }

    /// Records one propagation step. `adj` must be the normalized
    /// adjacency from [`GraphData::normalized_adjacency`].
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        adj: &Arc<CsrMatrix>,
        x: NodeId,
    ) -> NodeId {
        let h = self.linear.forward(g, params, x);
        let agg = g.spmm(Arc::clone(adj), h);
        self.activation.apply(g, agg)
    }

    /// One propagation step tape-free (see [`Linear::infer`] for
    /// `weights`); in `f64` it equals [`GcnLayer::forward`] bit for bit.
    pub fn infer<T: Scalar>(
        &self,
        weights: &[Dense<T>],
        adj: &CsrMatrix,
        x: &Dense<T>,
    ) -> Dense<T> {
        let h = self.linear.infer(weights, x);
        let mut out = Dense::zeros(adj.rows(), h.cols());
        spmm_forward(adj, &h, &mut out);
        self.activation.apply_in_place(out.as_mut_slice());
        out
    }
}

/// Graph attention with edge features ("RelGAT" in the paper).
///
/// Each head `k` computes, for edge `(j → i)` with edge feature `e_{ij}`:
///
/// ```text
/// s_{ij} = LeakyReLU( aᵀ [ W h_i ‖ W h_j ‖ W_e e_{ij} ] )
/// α_{ij} = softmax over j of s_{ij}        (per destination i)
/// h'_i   = σ( Σ_j α_{ij} (W h_j + W_e e_{ij}) )
/// ```
///
/// Multi-head outputs are concatenated. The edge projection `W_e` injects
/// the FEM spatial-relationship embedding into both the attention logits
/// and the messages, which is what distinguishes RelGAT from vanilla GAT.
#[derive(Debug, Clone)]
pub struct RelGatLayer {
    heads: Vec<GatHead>,
    activation: Activation,
    out_dim: usize,
}

#[derive(Debug, Clone)]
struct GatHead {
    w: Linear,
    we: Linear,
    attn: Linear, // [3·dh → 1]
}

impl RelGatLayer {
    /// Allocates a RelGAT layer with `num_heads` heads of width
    /// `head_dim`; the output width is `num_heads · head_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `num_heads == 0`.
    pub fn new(
        params: &mut Params,
        node_dim: usize,
        edge_dim: usize,
        head_dim: usize,
        num_heads: usize,
        activation: Activation,
    ) -> Self {
        assert!(num_heads > 0, "at least one attention head");
        let heads = (0..num_heads)
            .map(|_| GatHead {
                w: Linear::new(params, node_dim, head_dim),
                we: Linear::new(params, edge_dim, head_dim),
                attn: Linear::new(params, 3 * head_dim, 1),
            })
            .collect();
        RelGatLayer {
            heads,
            activation,
            out_dim: num_heads * head_dim,
        }
    }

    /// Output feature width (`num_heads · head_dim`).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Records one attention step over the given edge structure.
    ///
    /// `src`/`dst` are the per-edge endpoint index lists and `num_nodes`
    /// the node count (shared across layers, so callers build them once).
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: NodeId,
        edge_feats: NodeId,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
        num_nodes: usize,
    ) -> NodeId {
        let mut outs = Vec::with_capacity(self.heads.len());
        for head in &self.heads {
            let h = head.w.forward(g, params, x); // [N × dh]
            let he = head.we.forward(g, params, edge_feats); // [M × dh]
            let hs = g.gather_rows(h, Arc::clone(src)); // [M × dh]
            let hd = g.gather_rows(h, Arc::clone(dst)); // [M × dh]
            let cat = g.concat_cols(&[hd, hs, he]); // [M × 3dh]
            let scores = head.attn.forward(g, params, cat); // [M × 1]
            let scores = Activation::LeakyRelu.apply(g, scores);
            let alpha = g.segment_softmax(scores, Arc::clone(dst), num_nodes);
            let msg = g.add(hs, he); // neighbor + edge message
            let weighted = g.mul_col_broadcast(msg, alpha);
            let agg = g.scatter_add_rows(weighted, Arc::clone(dst), num_nodes);
            outs.push(agg);
        }
        let merged = if outs.len() == 1 {
            outs[0]
        } else {
            g.concat_cols(&outs)
        };
        self.activation.apply(g, merged)
    }

    /// One attention step tape-free (see [`Linear::infer`] for
    /// `weights`; the node count is `x.rows()`); it equals
    /// [`RelGatLayer::forward`] bit for bit.
    ///
    /// Each head runs two fused per-edge loops instead of the tape's
    /// gathers, concatenation, score GEMM and scatter:
    /// `attention_scores` and `attention_aggregate` read the node and
    /// edge projections in place and keep every sum in the tape's order.
    pub fn infer(
        &self,
        weights: &[Matrix],
        x: &Matrix,
        edge_feats: &Matrix,
        src: &[usize],
        dst: &[usize],
    ) -> Matrix {
        let n = x.rows();
        let head_dim = self.out_dim / self.heads.len();
        let mut out = Matrix::zeros(n, self.out_dim);
        let mut dst_part = vec![0.0; n];
        let mut scores = vec![0.0; src.len()];
        let mut alpha = vec![0.0; src.len()];
        for (k, head) in self.heads.iter().enumerate() {
            let h = head.w.infer(weights, x);
            let he = head.we.infer(weights, edge_feats);
            let (a, b) = head.attn.weights(weights);
            let attn = (a.as_slice(), b.get(0, 0));
            attention_scores(&h, &he, attn, src, dst, &mut dst_part, &mut scores);
            Activation::LeakyRelu.apply_in_place(&mut scores);
            segment_softmax_forward(&scores, dst, n, &mut alpha);
            attention_aggregate(&h, &he, &alpha, src, dst, &mut out, k * head_dim);
        }
        self.activation.apply_in_place(out.as_mut_slice());
        out
    }
}

/// Attention logits of one head before the LeakyReLU,
/// `aᵀ[h_dst ‖ h_src ‖ he_k] + b` for every edge `k`, into `scores`;
/// `attn` is `(a, b)`, the `3·head_dim` attention column and its bias.
///
/// The dot product runs in the tape's order — dst part, src part, edge
/// part, then the bias — so each logit equals the tape's concat-and-GEMM
/// bit for bit. The dst part is a prefix of that sum and depends only on
/// the destination, so it is computed once per node into `dst_part`.
// stco-hot
fn attention_scores(
    h: &Matrix,
    he: &Matrix,
    (a, b): (&[f64], f64),
    src: &[usize],
    dst: &[usize],
    dst_part: &mut [f64],
    scores: &mut [f64],
) {
    let head_dim = h.cols();
    let (a_dst, a_rest) = a.split_at(head_dim);
    let (a_src, a_edge) = a_rest.split_at(head_dim);
    let dot = |mut acc: f64, x: &[f64], w: &[f64]| {
        for (&xv, &wv) in x.iter().zip(w) {
            acc += xv * wv;
        }
        acc
    };
    for (i, p) in dst_part.iter_mut().enumerate() {
        *p = dot(0.0, h.row(i), a_dst);
    }
    for (k, ((&s, &d), score)) in src.iter().zip(dst).zip(scores).enumerate() {
        let acc = dot(dst_part[d], h.row(s), a_src);
        *score = dot(acc, he.row(k), a_edge) + b;
    }
}

/// Scatters each edge's message `(h_src + he_k)·α_k` into row `dst` of
/// `out`, columns `col0..col0 + head_dim`, in edge order: the tape's
/// add, column broadcast and scatter-add in one pass, bit for bit.
// stco-hot
fn attention_aggregate(
    h: &Matrix,
    he: &Matrix,
    alpha: &[f64],
    src: &[usize],
    dst: &[usize],
    out: &mut Matrix,
    col0: usize,
) {
    let head_dim = h.cols();
    for (k, ((&s, &d), &a)) in src.iter().zip(dst).zip(alpha).enumerate() {
        let row = &mut out.row_mut(d)[col0..col0 + head_dim];
        for ((o, &hv), &ev) in row.iter_mut().zip(h.row(s)).zip(he.row(k)) {
            *o += (hv + ev) * a;
        }
    }
}

/// A full RelGAT stack with per-layer [`LayerNorm`], mirroring the paper's
/// "12-layer GAT with 2 attention heads + LayerNorm" description.
#[derive(Debug, Clone)]
pub struct RelGatStack {
    layers: Vec<RelGatLayer>,
    norms: Vec<LayerNorm>,
    input_proj: Linear,
}

impl RelGatStack {
    /// Builds `depth` RelGAT layers of hidden width
    /// `num_heads · head_dim`, preceded by a linear input projection.
    pub fn new(
        params: &mut Params,
        node_dim: usize,
        edge_dim: usize,
        head_dim: usize,
        num_heads: usize,
        depth: usize,
    ) -> Self {
        let hidden = head_dim * num_heads;
        let input_proj = Linear::new(params, node_dim, hidden);
        let mut layers = Vec::with_capacity(depth);
        let mut norms = Vec::with_capacity(depth);
        for _ in 0..depth {
            layers.push(RelGatLayer::new(
                params,
                hidden,
                edge_dim,
                head_dim,
                num_heads,
                Activation::Elu,
            ));
            norms.push(LayerNorm::new(params, hidden));
        }
        RelGatStack {
            layers,
            norms,
            input_proj,
        }
    }

    /// Number of attention layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Hidden width of the stack.
    pub fn hidden_dim(&self) -> usize {
        self.input_proj.out_dim()
    }

    /// Records the full stack with residual connections and LayerNorm:
    /// `h ← LN(h + GAT(h))`.
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        node_feats: NodeId,
        edge_feats: NodeId,
        src: &Arc<Vec<usize>>,
        dst: &Arc<Vec<usize>>,
        num_nodes: usize,
    ) -> NodeId {
        let mut h = self.input_proj.forward(g, params, node_feats);
        for (layer, norm) in self.layers.iter().zip(&self.norms) {
            let out = layer.forward(g, params, h, edge_feats, src, dst, num_nodes);
            let res = g.add(h, out);
            h = norm.forward(g, params, res);
        }
        h
    }

    /// The full stack tape-free (see [`RelGatLayer::infer`]); it equals
    /// [`RelGatStack::forward`] bit for bit.
    pub fn infer(
        &self,
        weights: &[Matrix],
        node_feats: &Matrix,
        edge_feats: &Matrix,
        src: &[usize],
        dst: &[usize],
    ) -> Matrix {
        let mut h = self.input_proj.infer(weights, node_feats);
        for (layer, norm) in self.layers.iter().zip(&self.norms) {
            // The residual `h + GAT(h)`; IEEE addition commutes bitwise.
            let mut res = layer.infer(weights, &h, edge_feats, src, dst);
            for (r, &hv) in res.as_mut_slice().iter_mut().zip(h.as_slice()) {
                *r += hv;
            }
            h = norm.infer(weights, &res);
        }
        h
    }
}

/// Splits an edge list into the `(src, dst)` index vectors the attention
/// layers consume.
pub fn edge_index_lists(edges: &[(usize, usize)]) -> (Arc<Vec<usize>>, Arc<Vec<usize>>) {
    let src = edges.iter().map(|&(s, _)| s).collect();
    let dst = edges.iter().map(|&(_, d)| d).collect();
    (Arc::new(src), Arc::new(dst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use stco_numerics::rng::Xorshift;

    fn ring_graph(n: usize, node_dim: usize, edge_dim: usize, seed: u64) -> GraphData {
        let mut rng = Xorshift::new(seed);
        let node_data = (0..n * node_dim)
            .map(|_| rng.uniform_in(-1.0, 1.0))
            .collect();
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            edges.push(((i + 1) % n, i));
        }
        let edge_data = (0..edges.len() * edge_dim)
            .map(|_| rng.uniform_in(-1.0, 1.0))
            .collect();
        let mut g = GraphData {
            node_features: Matrix::from_vec(n, node_dim, node_data),
            edges: edges.clone(),
            edge_features: Matrix::from_vec(edges.len(), edge_dim, edge_data),
        };
        g.add_self_loops();
        g.assert_consistent();
        g
    }

    /// A graph whose node 4 has out-edges but no in-edges, so its
    /// softmax segment is empty and its aggregate stays zero.
    fn graph_with_source_only_node(seed: u64) -> GraphData {
        let mut rng = Xorshift::new(seed);
        let edges = vec![
            (0, 1),
            (1, 0),
            (4, 2),
            (2, 3),
            (3, 2),
            (4, 0),
            (1, 1),
            (2, 2),
        ];
        let random =
            |rng: &mut Xorshift, n: usize| (0..n).map(|_| rng.uniform_in(-2.0, 2.0)).collect();
        let node_features = Matrix::from_vec(5, 3, random(&mut rng, 15));
        let edge_features = Matrix::from_vec(edges.len(), 2, random(&mut rng, 2 * edges.len()));
        GraphData {
            node_features,
            edges,
            edge_features,
        }
    }

    /// Overwrites every weight and bias with random values, so the
    /// oracle checks exercise the bias adds and LayerNorm shifts too.
    fn randomize(params: &mut Params, seed: u64) {
        let mut rng = Xorshift::new(seed);
        for id in crate::param_ids(params).collect::<Vec<_>>() {
            for v in params.value_mut(id).as_mut_slice() {
                *v = rng.uniform_in(-1.0, 1.0);
            }
        }
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn relgat_layer_infer_matches_tape_bitwise() {
        for (graph, heads) in [
            (ring_graph(9, 3, 2, 12), 1),
            (ring_graph(9, 3, 2, 13), 2),
            (graph_with_source_only_node(14), 1),
            (graph_with_source_only_node(15), 2),
        ] {
            let (src, dst) = edge_index_lists(&graph.edges);
            let n = graph.num_nodes();
            let mut params = Params::new(16);
            let layer = RelGatLayer::new(&mut params, 3, 2, 5, heads, Activation::Elu);
            randomize(&mut params, 17 + heads as u64);
            let mut g = Graph::new();
            let x = g.input(graph.node_features.clone());
            let e = g.input(graph.edge_features.clone());
            let y = layer.forward(&mut g, &params, x, e, &src, &dst, n);
            let inferred = layer.infer(
                params.values(),
                &graph.node_features,
                &graph.edge_features,
                &src,
                &dst,
            );
            assert_eq!(
                bits(&inferred),
                bits(g.value(y)),
                "{heads} heads, {n} nodes"
            );
        }
    }

    #[test]
    fn relgat_stack_and_layer_norm_infer_match_tape_bitwise() {
        for (graph, heads) in [
            (ring_graph(11, 3, 2, 20), 1),
            (graph_with_source_only_node(21), 2),
        ] {
            let (src, dst) = edge_index_lists(&graph.edges);
            let n = graph.num_nodes();
            let mut params = Params::new(22);
            let stack = RelGatStack::new(&mut params, 3, 2, 4, heads, 3);
            let norm = LayerNorm::new(&mut params, 3);
            randomize(&mut params, 23);
            let mut g = Graph::new();
            let x = g.input(graph.node_features.clone());
            let e = g.input(graph.edge_features.clone());
            let h = stack.forward(&mut g, &params, x, e, &src, &dst, n);
            let normed = norm.forward(&mut g, &params, x);
            let weights = params.values();
            let inferred = stack.infer(
                weights,
                &graph.node_features,
                &graph.edge_features,
                &src,
                &dst,
            );
            assert_eq!(bits(&inferred), bits(g.value(h)), "stack, {heads} heads");
            let inferred = norm.infer(weights, &graph.node_features);
            assert_eq!(bits(&inferred), bits(g.value(normed)), "layer norm");
        }
    }

    #[test]
    fn normalized_adjacency_rows_behave() {
        let gd = ring_graph(5, 2, 1, 1);
        let adj = gd.normalized_adjacency();
        // Â of a ring (deg 3 with self loops): each row sums to ~1.
        for i in 0..5 {
            let s: f64 = adj.row_entries(i).map(|(_, v)| v).sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
    }

    #[test]
    fn gcn_layer_shapes() {
        let gd = ring_graph(6, 3, 1, 2);
        let adj = Arc::new(gd.normalized_adjacency());
        let mut params = Params::new(1);
        let layer = GcnLayer::new(&mut params, 3, 5, Activation::Relu);
        let mut g = Graph::new();
        let x = g.input(gd.node_features.clone());
        let y = layer.forward(&mut g, &params, &adj, x);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (6, 5));
    }

    #[test]
    fn relgat_layer_shapes_multi_head() {
        let gd = ring_graph(7, 4, 2, 3);
        let (src, dst) = edge_index_lists(&gd.edges);
        let mut params = Params::new(2);
        let layer = RelGatLayer::new(&mut params, 4, 2, 3, 2, Activation::Elu);
        assert_eq!(layer.out_dim(), 6);
        let mut g = Graph::new();
        let x = g.input(gd.node_features.clone());
        let e = g.input(gd.edge_features.clone());
        let y = layer.forward(&mut g, &params, x, e, &src, &dst, 7);
        assert_eq!((g.value(y).rows(), g.value(y).cols()), (7, 6));
    }

    #[test]
    fn message_passing_is_permutation_equivariant() {
        // Relabeling nodes then running the layer must equal running the
        // layer then relabeling the output.
        let gd = ring_graph(5, 3, 2, 4);
        let perm = [2usize, 0, 4, 1, 3]; // new index of old node i
        let mut permuted = gd.clone();
        // Permute node features.
        let mut nf = Matrix::zeros(5, 3);
        for (i, &pi) in perm.iter().enumerate() {
            let src_row: Vec<f64> = gd.node_features.row(i).to_vec();
            nf.row_mut(pi).copy_from_slice(&src_row);
        }
        permuted.node_features = nf;
        permuted.edges = gd.edges.iter().map(|&(s, d)| (perm[s], perm[d])).collect();

        let mut params = Params::new(5);
        let layer = RelGatLayer::new(&mut params, 3, 2, 4, 1, Activation::Identity);

        let run = |gd: &GraphData| -> Matrix {
            let (src, dst) = edge_index_lists(&gd.edges);
            let mut g = Graph::new();
            let x = g.input(gd.node_features.clone());
            let e = g.input(gd.edge_features.clone());
            let y = layer.forward(&mut g, &params, x, e, &src, &dst, 5);
            g.value(y).clone()
        };
        let out_a = run(&gd);
        let out_b = run(&permuted);
        for (i, &pi) in perm.iter().enumerate() {
            for j in 0..4 {
                assert!(
                    (out_a.get(i, j) - out_b.get(pi, j)).abs() < 1e-10,
                    "equivariance violated at node {i} feature {j}"
                );
            }
        }
    }

    #[test]
    fn relgat_stack_learns_node_regression() {
        // Target: each node's potential = mean of its ring neighbors'
        // first feature — learnable by one hop of attention.
        let gd = ring_graph(8, 3, 2, 6);
        let (src, dst) = edge_index_lists(&gd.edges);
        let mut target = Matrix::zeros(8, 1);
        for i in 0..8 {
            let prev = gd.node_features.get((i + 7) % 8, 0);
            let next = gd.node_features.get((i + 1) % 8, 0);
            target.set(i, 0, 0.5 * (prev + next));
        }
        let mut params = Params::new(7);
        let stack = RelGatStack::new(&mut params, 3, 2, 8, 1, 2);
        let head = Linear::new(&mut params, 8, 1);
        let mut adam = Adam::with_learning_rate(0.01);
        let mut last = f64::INFINITY;
        for _ in 0..300 {
            let mut g = Graph::new();
            let x = g.input(gd.node_features.clone());
            let e = g.input(gd.edge_features.clone());
            let t = g.input(target.clone());
            let h = stack.forward(&mut g, &params, x, e, &src, &dst, 8);
            let pred = head.forward(&mut g, &params, h);
            let loss = g.mse_loss(pred, t);
            last = g.value(loss).get(0, 0);
            params.zero_grads();
            g.backward(loss, &mut params);
            adam.step(&mut params);
        }
        assert!(last < 0.02, "RelGAT failed to fit neighbor mean: {last}");
    }

    /// The block assembly equals the triplet construction of the whole
    /// union — degrees, self-loops and summed duplicate edges included.
    #[test]
    fn block_adjacency_equals_union_triplet_adjacency() {
        let a = ring_graph(3, 2, 1, 8);
        let mut b = ring_graph(4, 2, 1, 9);
        b.edges.push((0, 1)); // a duplicate edge
        b.edges.retain(|&(s, d)| (s, d) != (2, 2)); // a node without a self-loop
        let union: Vec<(usize, usize)> = a
            .edges
            .iter()
            .copied()
            .chain(b.edges.iter().map(|&(s, d)| (s + 3, d + 3)))
            .collect();
        let mut triplets: Vec<(usize, usize, f64)> =
            union.iter().map(|&(s, d)| (d, s, 1.0)).collect();
        for i in 0..7 {
            if !union.contains(&(i, i)) {
                triplets.push((i, i, 1.0));
            }
        }
        let mut deg = [0.0_f64; 7];
        for &(r, _, _) in &triplets {
            deg[r] += 1.0;
        }
        for t in &mut triplets {
            t.2 /= deg[t.0].sqrt() * deg[t.1].sqrt();
        }
        let expected = CsrMatrix::from_triplets(7, 7, &triplets);
        let blocks = block_normalized_adjacency([(3, a.edges.as_slice()), (4, b.edges.as_slice())]);
        assert_eq!(blocks, expected);
    }

    #[test]
    fn self_loops_added_once_with_zero_features() {
        let mut gd = ring_graph(4, 2, 3, 10);
        let before = gd.num_edges();
        // ring_graph already added self loops; add_self_loops again appends 4 more.
        gd.add_self_loops();
        assert_eq!(gd.num_edges(), before + 4);
        let last: Vec<f64> = gd.edge_features.row(gd.num_edges() - 1).to_vec();
        assert!(last.iter().all(|&v| v == 0.0));
    }
}
