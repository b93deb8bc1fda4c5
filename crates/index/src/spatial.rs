//! The distributed spatial index of the OSM experiment.
//!
//! §5.1: *"We partition the US map into 4×8 cells with small overlapping
//! regions, then build an R\*tree for each cell. Each R\*tree is replicated
//! to 3 machines."* A kNN lookup is served by the cell containing the
//! query point; thanks to the overlap margin the answer is usually
//! complete locally, and the index falls back to an exact multi-cell
//! search when the k-th neighbor might lie beyond the overlap guarantee —
//! so results are always exact.

use std::sync::Arc;

use efind::{IndexAccessor, PartitionScheme};
use efind_cluster::{Cluster, NodeId, SimDuration};
use efind_common::{fx_hash_bytes, Datum, FxHashSet};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::rtree::{dist2, Point, RStarTree, Rect};

/// Configuration of the grid index.
#[derive(Clone, Debug)]
pub struct SpatialGridConfig {
    /// Grid columns (paper: 4).
    pub grid_x: usize,
    /// Grid rows (paper: 8).
    pub grid_y: usize,
    /// Overlap margin around each cell, in coordinate units.
    pub overlap: f64,
    /// Replicas per cell tree (paper: 3).
    pub replication: usize,
    /// Neighbors returned per lookup (the paper's k = 10).
    pub k: usize,
    /// Fixed per-lookup service time (tree descent).
    pub base_serve: SimDuration,
    /// Additional service seconds per result byte.
    pub serve_secs_per_byte: f64,
    /// Placement seed.
    pub seed: u64,
}

impl Default for SpatialGridConfig {
    fn default() -> Self {
        SpatialGridConfig {
            grid_x: 4,
            grid_y: 8,
            overlap: 0.5,
            replication: 3,
            k: 10,
            base_serve: SimDuration::from_micros(100),
            serve_secs_per_byte: 5.0e-9,
            seed: 0x5AA7,
        }
    }
}

/// The grid partition scheme: a 2-D point key maps to its containing cell.
pub struct GridScheme {
    bbox: Rect,
    grid_x: usize,
    grid_y: usize,
    hosts: Vec<Vec<NodeId>>,
}

impl GridScheme {
    fn cell_of_point(&self, p: Point) -> usize {
        let fx = (p[0] - self.bbox.min[0]) / (self.bbox.max[0] - self.bbox.min[0]).max(1e-12);
        let fy = (p[1] - self.bbox.min[1]) / (self.bbox.max[1] - self.bbox.min[1]).max(1e-12);
        let ix = ((fx * self.grid_x as f64) as isize).clamp(0, self.grid_x as isize - 1) as usize;
        let iy = ((fy * self.grid_y as f64) as isize).clamp(0, self.grid_y as isize - 1) as usize;
        iy * self.grid_x + ix
    }

    fn cell_rect(&self, cell: usize) -> Rect {
        let ix = cell % self.grid_x;
        let iy = cell / self.grid_x;
        let w = (self.bbox.max[0] - self.bbox.min[0]) / self.grid_x as f64;
        let h = (self.bbox.max[1] - self.bbox.min[1]) / self.grid_y as f64;
        Rect::new(
            [
                self.bbox.min[0] + ix as f64 * w,
                self.bbox.min[1] + iy as f64 * h,
            ],
            [
                self.bbox.min[0] + (ix + 1) as f64 * w,
                self.bbox.min[1] + (iy + 1) as f64 * h,
            ],
        )
    }
}

impl PartitionScheme for GridScheme {
    fn num_partitions(&self) -> usize {
        self.grid_x * self.grid_y
    }

    fn partition_of(&self, key: &Datum) -> usize {
        match decode_point(key) {
            Some(p) => self.cell_of_point(p),
            None => 0,
        }
    }

    fn hosts(&self, partition: usize) -> Vec<NodeId> {
        self.hosts[partition].clone()
    }
}

/// Encodes a point as the lookup key `List[Float x, Float y]`.
pub fn encode_point(p: Point) -> Datum {
    Datum::List(vec![Datum::Float(p[0]), Datum::Float(p[1])])
}

/// Decodes a point lookup key.
pub fn decode_point(key: &Datum) -> Option<Point> {
    let list = key.as_list()?;
    if list.len() != 2 {
        return None;
    }
    Some([list[0].as_float()?, list[1].as_float()?])
}

/// Encodes one neighbor as `List[Int id, Float x, Float y, Float dist2]`.
pub fn encode_neighbor(id: u64, p: Point, d2: f64) -> Datum {
    Datum::List(vec![
        Datum::Int(id as i64),
        Datum::Float(p[0]),
        Datum::Float(p[1]),
        Datum::Float(d2),
    ])
}

/// Decodes a neighbor value back to `(id, point, dist2)`.
pub fn decode_neighbor(value: &Datum) -> Option<(u64, Point, f64)> {
    let list = value.as_list()?;
    if list.len() != 4 {
        return None;
    }
    Some((
        list[0].as_int()? as u64,
        [list[1].as_float()?, list[2].as_float()?],
        list[3].as_float()?,
    ))
}

/// The grid-of-R\*-trees distributed spatial index.
pub struct SpatialGridIndex {
    name: String,
    cells: Vec<RStarTree>,
    scheme: Arc<GridScheme>,
    config: SpatialGridConfig,
}

impl SpatialGridIndex {
    /// Builds the index over `points` covering `bbox`.
    pub fn build(
        name: impl Into<String>,
        cluster: &Cluster,
        config: SpatialGridConfig,
        bbox: Rect,
        points: impl IntoIterator<Item = (Point, u64)>,
    ) -> Self {
        let name = name.into();
        let n_nodes = cluster.num_nodes();
        let replication = config.replication.clamp(1, n_nodes as usize);
        let num_cells = config.grid_x * config.grid_y;
        let mut rng = SmallRng::seed_from_u64(config.seed ^ fx_hash_bytes(name.as_bytes()));
        let hosts: Vec<Vec<NodeId>> = (0..num_cells)
            .map(|c| {
                let mut hs = vec![NodeId((c % n_nodes as usize) as u16)];
                while hs.len() < replication {
                    let cand = NodeId(rng.gen_range(0..n_nodes));
                    if !hs.contains(&cand) {
                        hs.push(cand);
                    }
                }
                hs
            })
            .collect();
        let scheme = Arc::new(GridScheme {
            bbox,
            grid_x: config.grid_x,
            grid_y: config.grid_y,
            hosts,
        });

        let mut cells: Vec<RStarTree> = (0..num_cells).map(|_| RStarTree::new()).collect();
        for (p, id) in points {
            // Insert into the owning cell, plus any neighbor whose
            // overlap-expanded rectangle also covers the point.
            for (cell, tree) in cells.iter_mut().enumerate() {
                let rect = scheme.cell_rect(cell);
                let expanded = Rect::new(
                    [rect.min[0] - config.overlap, rect.min[1] - config.overlap],
                    [rect.max[0] + config.overlap, rect.max[1] + config.overlap],
                );
                if expanded.contains(p) {
                    tree.insert(p, id);
                }
            }
        }
        SpatialGridIndex {
            name,
            cells,
            scheme,
            config,
        }
    }

    /// Exact k-nearest neighbors of `q` (k from the configuration).
    pub fn knn(&self, q: Point) -> Vec<(u64, Point, f64)> {
        let k = self.config.k;
        let home = self.scheme.cell_of_point(q);
        let local = self.cells[home].knn(q, k);
        if local.len() == k {
            // Guarantee radius: every point within this distance of q is
            // present in the home cell (thanks to the overlap margin).
            let rect = self.scheme.cell_rect(home);
            let boundary = (q[0] - rect.min[0])
                .min(rect.max[0] - q[0])
                .min(q[1] - rect.min[1])
                .min(rect.max[1] - q[1])
                .max(0.0);
            let guard = boundary + self.config.overlap;
            if local[k - 1].2 <= guard * guard {
                return local;
            }
        }
        self.global_knn(q, k)
    }

    /// Exact kNN merging every cell whose rectangle could contribute.
    fn global_knn(&self, q: Point, k: usize) -> Vec<(u64, Point, f64)> {
        let mut order: Vec<(f64, usize)> = (0..self.cells.len())
            .map(|c| (self.scheme.cell_rect(c).min_dist2(q), c))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut best: Vec<(u64, Point, f64)> = Vec::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for (cell_d2, cell) in order {
            if best.len() == k && cell_d2 > best[k - 1].2 {
                break;
            }
            for cand in self.cells[cell].knn(q, k) {
                if seen.insert(cand.0) {
                    best.push(cand);
                }
            }
            best.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
            best.truncate(k);
        }
        best
    }

    /// Brute-force exact kNN over all stored points (test oracle).
    pub fn brute_knn(&self, q: Point, k: usize) -> Vec<(u64, Point, f64)> {
        let mut all: Vec<(u64, Point, f64)> = Vec::new();
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        for cell in &self.cells {
            for (id, p) in cell.range(&cell.bbox()) {
                if seen.insert(id) {
                    all.push((id, p, dist2(p, q)));
                }
            }
        }
        all.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }
}

impl IndexAccessor for SpatialGridIndex {
    fn name(&self) -> &str {
        &self.name
    }

    fn lookup(&self, key: &Datum) -> Vec<Datum> {
        let Some(q) = decode_point(key) else {
            return Vec::new();
        };
        self.knn(q)
            .into_iter()
            .map(|(id, p, d2)| encode_neighbor(id, p, d2))
            .collect()
    }

    fn serve_time(&self, _key: &Datum, result_bytes: u64) -> SimDuration {
        self.config.base_serve
            + SimDuration::from_secs_f64(result_bytes as f64 * self.config.serve_secs_per_byte)
    }

    fn partition_scheme(&self) -> Option<Arc<dyn PartitionScheme>> {
        Some(self.scheme.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, seed: u64) -> (SpatialGridIndex, Vec<(Point, u64)>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let points: Vec<(Point, u64)> = (0..n)
            .map(|i| {
                (
                    [rng.gen_range(0.0..40.0), rng.gen_range(0.0..20.0)],
                    i as u64,
                )
            })
            .collect();
        let idx = SpatialGridIndex::build(
            "osm",
            &Cluster::edbt_testbed(),
            SpatialGridConfig {
                k: 10,
                overlap: 1.0,
                ..SpatialGridConfig::default()
            },
            Rect::new([0.0, 0.0], [40.0, 20.0]),
            points.clone(),
        );
        (idx, points)
    }

    fn brute(points: &[(Point, u64)], q: Point, k: usize) -> Vec<(u64, f64)> {
        let mut all: Vec<(u64, f64)> = points.iter().map(|(p, id)| (*id, dist2(*p, q))).collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    #[test]
    fn knn_is_exact_everywhere() {
        let (idx, points) = build(3000, 5);
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..50 {
            let q = [rng.gen_range(0.0..40.0), rng.gen_range(0.0..20.0)];
            let got = idx.knn(q);
            let expected = brute(&points, q, 10);
            assert_eq!(got.len(), 10);
            for (g, e) in got.iter().zip(&expected) {
                assert!(
                    (g.2 - e.1).abs() < 1e-9,
                    "query {q:?}: got d2={} expected {}",
                    g.2,
                    e.1
                );
            }
        }
    }

    #[test]
    fn knn_exact_on_cell_boundaries() {
        let (idx, points) = build(2000, 17);
        // Queries pinned exactly on internal grid lines.
        for q in [[10.0, 10.0], [20.0, 5.0], [30.0, 2.5], [10.0, 17.5]] {
            let got = idx.knn(q);
            let expected = brute(&points, q, 10);
            for (g, e) in got.iter().zip(&expected) {
                assert!((g.2 - e.1).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn overlap_duplicates_points_near_boundaries() {
        let (idx, points) = build(3000, 5);
        let stored: usize = idx.cells.iter().map(RStarTree::len).sum();
        assert!(stored > points.len());
    }

    #[test]
    fn accessor_roundtrip_through_datums() {
        let (idx, points) = build(500, 3);
        let q = [13.0, 7.0];
        let values = idx.lookup(&encode_point(q));
        assert_eq!(values.len(), 10);
        let first = decode_neighbor(&values[0]).unwrap();
        let expected = brute(&points, q, 1);
        assert_eq!(first.0, expected[0].0);
    }

    #[test]
    fn scheme_routes_to_containing_cell() {
        let (idx, _) = build(100, 1);
        let scheme = idx.partition_scheme().unwrap();
        assert_eq!(scheme.num_partitions(), 32);
        // Corner points route to corner cells.
        assert_eq!(scheme.partition_of(&encode_point([0.1, 0.1])), 0);
        assert_eq!(scheme.partition_of(&encode_point([39.9, 19.9])), 31);
        // Out-of-bbox points clamp rather than panic.
        let _ = scheme.partition_of(&encode_point([-5.0, 100.0]));
        for p in 0..scheme.num_partitions() {
            assert_eq!(scheme.hosts(p).len(), 3);
        }
    }

    #[test]
    fn malformed_key_returns_empty() {
        let (idx, _) = build(10, 1);
        assert!(idx.lookup(&Datum::Int(5)).is_empty());
        assert!(idx.lookup(&Datum::List(vec![Datum::Int(1)])).is_empty());
    }
}
