//! Breadth First Search on GMT (§V-B).
//!
//! Queue-based level-synchronous BFS, the structure shared by the paper's
//! GMT and Cray XMT codes: a parallel loop over the current vertex queue
//! claims unvisited neighbors with `gmt_atomicCAS` and appends them to the
//! next queue with `gmt_atomicAdd` on its size counter. The whole kernel
//! is a few dozen lines — the paper contrasts this with the ~700-line
//! hand-optimized UPC version.

use gmt_core::{Distribution, GmtArray, SpawnPolicy, TaskCtx};
use gmt_graph::DistGraph;

/// Result of a distributed BFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    /// Level per vertex; `-1` = unreachable.
    pub levels: Vec<i64>,
    /// Number of vertices reached (including the source).
    pub visited: u64,
    /// Edges examined while traversing (sum of out-degrees of visited
    /// vertices) — the numerator of the paper's MTEPS metric.
    pub traversed_edges: u64,
}

/// Chunk size for the frontier parFor (iterations per task).
const CHUNK: u32 = 16;

/// Runs BFS from `source` over the global graph, returning per-vertex
/// levels. Must be called from a GMT task context.
pub fn gmt_bfs(ctx: &TaskCtx<'_>, g: &DistGraph, source: u64) -> BfsResult {
    let n = g.vertices();
    assert!(source < n, "source {source} out of range");
    // Global state: levels (init -1), two vertex queues, next-queue size.
    let levels = ctx.alloc(n * 8, Distribution::Partition);
    let qa = ctx.alloc(n * 8, Distribution::Partition);
    let qb = ctx.alloc(n * 8, Distribution::Partition);
    let qsize = ctx.alloc(8, Distribution::Partition);
    ctx.parfor(SpawnPolicy::Partition, n, 256, move |ctx, v| {
        ctx.put_value_nb::<i64>(&levels, v, -1);
        ctx.wait_commands().unwrap();
    });

    ctx.put_value::<i64>(&levels, source, 0).unwrap();
    ctx.put_value::<u64>(&qa, 0, source).unwrap();
    let mut cur = qa;
    let mut next = qb;
    let mut cur_size = 1u64;
    let mut level = 0i64;
    while cur_size > 0 {
        ctx.put_value::<i64>(&qsize, 0, 0).unwrap();
        let g = *g;
        ctx.parfor(SpawnPolicy::Partition, cur_size, CHUNK, move |ctx, qi| {
            let v = ctx.get_value::<u64>(&cur, qi).unwrap();
            let mut nbrs = Vec::new();
            g.neighbors_into(ctx, v, &mut nbrs);
            for t in nbrs {
                // Claim unvisited neighbors; exactly one task wins each.
                if ctx.atomic_cas(&levels, t * 8, -1, level + 1).unwrap() == -1 {
                    let idx = ctx.atomic_add(&qsize, 0, 1).unwrap() as u64;
                    ctx.put_value::<u64>(&next, idx, t).unwrap();
                }
            }
        });
        cur_size = ctx.get_value::<u64>(&qsize, 0).unwrap();
        std::mem::swap(&mut cur, &mut next);
        level += 1;
    }

    // Extract levels and free global state.
    let out = read_words(ctx, &levels, n);
    ctx.free(levels);
    ctx.free(qa);
    ctx.free(qb);
    ctx.free(qsize);

    // Degrees from one bulk read of the offsets, not a get per vertex.
    let offsets = read_words(ctx, g.offsets_array(), n + 1);
    let mut visited = 0u64;
    let mut traversed = 0u64;
    for (v, &l) in out.iter().enumerate() {
        if l >= 0 {
            visited += 1;
            traversed += (offsets[v + 1] - offsets[v]) as u64;
        }
    }
    BfsResult { levels: out, visited, traversed_edges: traversed }
}

/// Reads the first `n` 8-byte words of `arr` with one blocking get.
fn read_words(ctx: &TaskCtx<'_>, arr: &GmtArray, n: u64) -> Vec<i64> {
    let mut bytes = vec![0u8; (n * 8) as usize];
    ctx.get(arr, 0, &mut bytes).unwrap();
    bytes.chunks_exact(8).map(|c| i64::from_le_bytes(c.try_into().unwrap())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmt_core::{Cluster, Config};
    use gmt_graph::{uniform_random, Csr, GraphSpec};

    fn check_against_reference(csr: Csr, nodes: usize, source: u64) {
        let reference = csr.bfs_levels(source);
        let cluster = Cluster::start(nodes, Config::small()).unwrap();
        let result = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_bfs(ctx, &g, source);
            g.free(ctx);
            r
        });
        cluster.shutdown();
        let expected: Vec<i64> =
            reference.iter().map(|&l| if l == u64::MAX { -1 } else { l as i64 }).collect();
        assert_eq!(result.levels, expected);
        assert_eq!(result.visited, expected.iter().filter(|&&l| l >= 0).count() as u64);
    }

    #[test]
    fn bfs_on_diamond_single_node() {
        check_against_reference(Csr::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]), 1, 0);
    }

    #[test]
    fn bfs_on_chain_two_nodes() {
        let edges: Vec<(u64, u64)> = (0..19).map(|i| (i, i + 1)).collect();
        check_against_reference(Csr::from_edges(20, &edges), 2, 0);
    }

    #[test]
    fn bfs_with_unreachable_component() {
        // Two components: 0-1-2 and 3-4.
        let csr = Csr::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        check_against_reference(csr, 2, 0);
    }

    #[test]
    fn bfs_random_graph_matches_reference_across_nodes() {
        let csr = uniform_random(GraphSpec { vertices: 200, avg_degree: 4, seed: 77 });
        for nodes in [1usize, 3] {
            check_against_reference(csr.clone(), nodes, 0);
        }
    }

    #[test]
    fn bfs_counts_traversed_edges() {
        // Fully connected triangle: every vertex visited, all 6 edges.
        let csr = Csr::from_edges(3, &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]);
        let cluster = Cluster::start(2, Config::small()).unwrap();
        let r = cluster.node(0).run(move |ctx| {
            let g = DistGraph::from_csr(ctx, &csr);
            let r = gmt_bfs(ctx, &g, 1);
            g.free(ctx);
            r
        });
        cluster.shutdown();
        assert_eq!(r.visited, 3);
        assert_eq!(r.traversed_edges, 6);
    }
}
