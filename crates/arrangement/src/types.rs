//! Identifier types, sign labels and raw cell data for the planar cell
//! complex.

use crate::runs::Runs;
use spatial_core::prelude::*;
use std::fmt;

/// Index of a 0-cell (vertex) in a [`crate::CellComplex`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VertexId(pub usize);

/// Index of a 1-cell (edge) in a [`crate::CellComplex`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub usize);

/// Index of a 2-cell (face) in a [`crate::CellComplex`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FaceId(pub usize);

/// A *dart* (half-edge): edge `e` traversed forward (`2e`) or backward
/// (`2e + 1`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DartId(pub usize);

impl DartId {
    /// The forward dart of an edge.
    pub fn forward(e: EdgeId) -> DartId {
        DartId(e.0 * 2)
    }

    /// The backward dart of an edge.
    pub fn backward(e: EdgeId) -> DartId {
        DartId(e.0 * 2 + 1)
    }

    /// The edge this dart belongs to.
    pub fn edge(self) -> EdgeId {
        EdgeId(self.0 / 2)
    }

    /// Is this the forward dart of its edge?
    pub fn is_forward(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The opposite dart of the same edge.
    pub fn twin(self) -> DartId {
        DartId(self.0 ^ 1)
    }
}

/// The sign of a cell with respect to one region: the paper's labeling
/// `σ : names(I) → {o, ∂, −}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Sign {
    /// The cell lies in the region's interior (`o`).
    Interior,
    /// The cell lies on the region's boundary (`∂`).
    Boundary,
    /// The cell lies in the region's exterior (`−`).
    Exterior,
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sign::Interior => "o",
            Sign::Boundary => "∂",
            Sign::Exterior => "-",
        };
        write!(f, "{s}")
    }
}

/// A cell label, the paper's labelling `l` at one cell, stored sparsely: the
/// `(region, sign)` pairs of the regions the cell is not exterior to, by
/// ascending region index (into the region-name list). An absent region is
/// [`Sign::Exterior`], so [`Label::default`] labels a cell exterior to every
/// region, and a label costs the regions enclosing or bounding its cell.
///
/// This is the owned label a read returns
/// ([`ComplexRead::vertex_label`](crate::ComplexRead::vertex_label) and its
/// siblings). A complex stores no `Label` per cell: its labels are the same
/// entries, one run per cell of a flat table per dimension (`Labels`).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Label(Vec<(usize, Sign)>);

impl Label {
    /// The cell's sign with respect to one region index.
    pub fn sign(&self, region: usize) -> Sign {
        sign_in(&self.0, region)
    }

    /// The stored `(region, sign)` entries, by ascending region.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (usize, Sign)> + Clone + '_ {
        self.0.iter().copied()
    }

    /// The label of a run of stored entries, borrowed or owned: ascending
    /// regions, no `Exterior` sign.
    pub(crate) fn from_entries(entries: impl Into<Vec<(usize, Sign)>>) -> Label {
        let entries = entries.into();
        debug_assert!(is_label_run(&entries), "label entries ascend and omit Exterior");
        Label(entries)
    }
}

/// The one constructor: sorts the pairs by region and drops `Exterior` ones.
/// A repeated region is kept, and `invariant::validate` reports the label.
impl FromIterator<(usize, Sign)> for Label {
    fn from_iter<I: IntoIterator<Item = (usize, Sign)>>(pairs: I) -> Label {
        let mut entries: Vec<(usize, Sign)> = pairs.into_iter().collect();
        entries.retain(|&(_, s)| s != Sign::Exterior);
        entries.sort_by_key(|&(r, _)| r);
        Label(entries)
    }
}

/// A label from its entries, for tests.
#[cfg(test)]
pub(crate) fn label(entries: &[(usize, Sign)]) -> Label {
    entries.iter().copied().collect()
}

/// The labels of a complex's cells of one dimension, one run of label
/// entries per cell in id order: ascending regions, no `Exterior` entry.
pub(crate) type Labels = Runs<(usize, Sign)>;

/// The sign for `region` in a run of label entries: a binary search.
pub(crate) fn sign_in(entries: &[(usize, Sign)], region: usize) -> Sign {
    let at = entries.binary_search_by_key(&region, |&(r, _)| r);
    at.map_or(Sign::Exterior, |i| entries[i].1)
}

/// Do `entries` form a label run: strictly ascending regions, no
/// `Exterior` sign?
pub(crate) fn is_label_run(entries: &[(usize, Sign)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0) && entries.iter().all(|&(_, s)| s != Sign::Exterior)
}

/// Two ascending runs of label entries for disjoint regions, merged into
/// one ascending run: how a label gains entries without a sort.
pub(crate) fn merge_entries<A, B>(a: A, b: B) -> MergeEntries<A, B>
where
    A: Iterator<Item = (usize, Sign)>,
    B: Iterator<Item = (usize, Sign)>,
{
    MergeEntries { a: a.peekable(), b: b.peekable() }
}

/// The iterator of [`merge_entries`]. Its length is the sum of its inputs',
/// so collecting it allocates once when theirs are known.
pub(crate) struct MergeEntries<A: Iterator, B: Iterator> {
    a: std::iter::Peekable<A>,
    b: std::iter::Peekable<B>,
}

impl<A, B> Iterator for MergeEntries<A, B>
where
    A: Iterator<Item = (usize, Sign)>,
    B: Iterator<Item = (usize, Sign)>,
{
    type Item = (usize, Sign);

    fn next(&mut self) -> Option<(usize, Sign)> {
        match (self.a.peek(), self.b.peek()) {
            (Some(x), Some(y)) if y.0 < x.0 => self.b.next(),
            (Some(_), _) => self.a.next(),
            (None, _) => self.b.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let ((a_lo, a_hi), (b_lo, b_hi)) = (self.a.size_hint(), self.b.size_hint());
        (a_lo + b_lo, a_hi.zip(b_hi).map(|(a, b)| a + b))
    }
}

/// Data stored for a vertex (0-cell). Its rotation, the outgoing darts in
/// counter-clockwise order, and its label are runs of the complex's flat
/// rotation and vertex-label tables: read them with
/// [`ComplexRead::vertex_rotation`](crate::ComplexRead::vertex_rotation) and
/// [`ComplexRead::vertex_label`](crate::ComplexRead::vertex_label).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VertexData {
    /// The geometric position of the vertex.
    pub point: Point,
}

/// Data stored for an edge (1-cell). Its polyline, from `tail` to `head`
/// (at least two points; first and last are the endpoint positions), and its
/// label, whose `Boundary` entries are the regions whose boundary contains
/// the edge, are runs of the complex's flat polyline and edge-label tables:
/// read them with
/// [`ComplexGeometry::edge_polyline`](crate::ComplexGeometry::edge_polyline)
/// and [`ComplexRead::edge_label`](crate::ComplexRead::edge_label).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EdgeData {
    /// Tail vertex of the forward dart.
    pub tail: VertexId,
    /// Head vertex of the forward dart (equal to `tail` for a loop).
    pub head: VertexId,
    /// Face to the left of the forward dart.
    pub left_face: FaceId,
    /// Face to the left of the backward dart (i.e. to the right of the edge).
    pub right_face: FaceId,
}

/// Data stored for a face (2-cell): purely combinatorial. A face has no
/// geometry of its own beyond its boundary edges' polylines, and keeps no
/// interior point; `tests/label_oracle.rs` locates probe points of its own
/// to check the labels against the regions. Its boundary edges, including
/// those of the components embedded in it, and its label (`Interior`
/// entries only: faces never lie on a boundary) are runs of the complex's
/// flat boundary and face-label tables: read them with
/// [`ComplexRead::face_boundary`](crate::ComplexRead::face_boundary) and
/// [`ComplexRead::face_label`](crate::ComplexRead::face_label).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaceData {
    /// Is this the unbounded (exterior) face `f0`?
    pub is_exterior: bool,
}

/// The dimension of a cell.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Dimension {
    /// 0-cells (vertices).
    Zero,
    /// 1-cells (edges).
    One,
    /// 2-cells (faces).
    Two,
}

/// A reference to any cell of the complex.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum CellId {
    /// A vertex.
    Vertex(VertexId),
    /// An edge.
    Edge(EdgeId),
    /// A face.
    Face(FaceId),
}

impl CellId {
    /// The dimension of the referenced cell.
    pub fn dimension(self) -> Dimension {
        match self {
            CellId::Vertex(_) => Dimension::Zero,
            CellId::Edge(_) => Dimension::One,
            CellId::Face(_) => Dimension::Two,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dart_arithmetic() {
        let e = EdgeId(3);
        let f = DartId::forward(e);
        let b = DartId::backward(e);
        assert_eq!(f, DartId(6));
        assert_eq!(b, DartId(7));
        assert_eq!(f.twin(), b);
        assert_eq!(b.twin(), f);
        assert_eq!(f.edge(), e);
        assert_eq!(b.edge(), e);
        assert!(f.is_forward());
        assert!(!b.is_forward());
    }

    #[test]
    fn merged_entries_ascend_and_sign_in_reads_absent_regions_as_exterior() {
        let a = [(1, Sign::Interior), (4, Sign::Boundary)];
        let b = [(0, Sign::Interior), (2, Sign::Boundary), (7, Sign::Interior)];
        let merged: Vec<(usize, Sign)> = merge_entries(a.into_iter(), b.into_iter()).collect();
        assert!(is_label_run(&merged));
        assert_eq!(merged.len(), 5);
        assert_eq!(sign_in(&merged, 4), Sign::Boundary);
        assert_eq!(sign_in(&merged, 3), Sign::Exterior);
        assert_eq!(Label::from_entries(&merged[..]), merged.iter().copied().collect());
        assert!(!is_label_run(&[(2, Sign::Interior), (1, Sign::Interior)]));
        assert!(!is_label_run(&[(1, Sign::Exterior)]));
    }

    #[test]
    fn sign_display() {
        assert_eq!(format!("{}", Sign::Interior), "o");
        assert_eq!(format!("{}", Sign::Boundary), "∂");
        assert_eq!(format!("{}", Sign::Exterior), "-");
    }

    #[test]
    fn cell_dimension() {
        assert_eq!(CellId::Vertex(VertexId(0)).dimension(), Dimension::Zero);
        assert_eq!(CellId::Edge(EdgeId(0)).dimension(), Dimension::One);
        assert_eq!(CellId::Face(FaceId(0)).dimension(), Dimension::Two);
        assert!(Dimension::Zero < Dimension::Two);
    }
}
