//! Axis-aligned rectangle algebra over image pixel coordinates.
//!
//! Virtual Microscope queries and cached intermediate results are all
//! described by 2-D rectangular regions at the dataset's base resolution.
//! Reuse detection (the `overlap` operator of the paper's Eq. 2/4) and
//! sub-query generation ("compute the portions not answered from cache")
//! reduce to intersection and region subtraction on these rectangles.
//!
//! Rectangles are half-open: a rect with origin `(x, y)` and size `(w, h)`
//! covers pixels with `x <= px < x + w` and `y <= py < y + h`. Empty
//! rectangles (`w == 0 || h == 0`) are permitted and behave as the empty set.

/// A half-open axis-aligned rectangle in base-resolution pixel coordinates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x: u32,
    /// Top edge (inclusive).
    pub y: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl Rect {
    /// Creates a rectangle from origin and size.
    #[inline]
    pub const fn new(x: u32, y: u32, w: u32, h: u32) -> Self {
        Rect { x, y, w, h }
    }

    /// Creates a rectangle from inclusive-exclusive edges.
    /// Returns an empty rect when `x1 <= x0` or `y1 <= y0`.
    #[inline]
    pub fn from_edges(x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        Rect {
            x: x0,
            y: y0,
            w: x1.saturating_sub(x0),
            h: y1.saturating_sub(y0),
        }
    }

    /// The canonical empty rectangle.
    #[inline]
    pub const fn empty() -> Self {
        Rect::new(0, 0, 0, 0)
    }

    /// Right edge (exclusive).
    #[inline]
    pub fn x1(&self) -> u32 {
        self.x + self.w
    }

    /// Bottom edge (exclusive).
    #[inline]
    pub fn y1(&self) -> u32 {
        self.y + self.h
    }

    /// True when the rectangle covers no pixels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w == 0 || self.h == 0
    }

    /// Number of pixels covered.
    #[inline]
    pub fn area(&self) -> u64 {
        self.w as u64 * self.h as u64
    }

    /// True when `self` fully contains `other` (every pixel of `other` is in
    /// `self`). An empty `other` is contained in everything.
    pub fn contains(&self, other: &Rect) -> bool {
        if other.is_empty() {
            return true;
        }
        if self.is_empty() {
            return false;
        }
        self.x <= other.x && self.y <= other.y && self.x1() >= other.x1() && self.y1() >= other.y1()
    }

    /// True when the pixel `(px, py)` is inside the rectangle.
    #[inline]
    pub fn contains_point(&self, px: u32, py: u32) -> bool {
        px >= self.x && px < self.x1() && py >= self.y && py < self.y1()
    }

    /// Intersection of two rectangles; `None` when they are disjoint (or
    /// either is empty).
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = self.x1().min(other.x1());
        let y1 = self.y1().min(other.y1());
        if x0 < x1 && y0 < y1 {
            Some(Rect::from_edges(x0, y0, x1, y1))
        } else {
            None
        }
    }

    /// Area of the intersection (0 when disjoint).
    #[inline]
    pub fn intersection_area(&self, other: &Rect) -> u64 {
        self.intersect(other).map_or(0, |r| r.area())
    }

    /// True when the two rectangles share at least one pixel.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.intersect(other).is_some()
    }

    /// Subtracts `other` from `self`, returning the remainder as up to four
    /// disjoint rectangles (top band, bottom band, left band, right band).
    ///
    /// The returned rectangles exactly tile `self \ other`: they are pairwise
    /// disjoint and their total area equals `self.area() -
    /// self.intersection_area(other)`.
    pub fn subtract(&self, other: &Rect) -> Vec<Rect> {
        let inter = match self.intersect(other) {
            Some(i) => i,
            None => {
                return if self.is_empty() {
                    Vec::new()
                } else {
                    vec![*self]
                }
            }
        };
        let mut out = Vec::with_capacity(4);
        // Top band: full width of self, above the intersection.
        if inter.y > self.y {
            out.push(Rect::from_edges(self.x, self.y, self.x1(), inter.y));
        }
        // Bottom band: full width of self, below the intersection.
        if inter.y1() < self.y1() {
            out.push(Rect::from_edges(self.x, inter.y1(), self.x1(), self.y1()));
        }
        // Left band: between the horizontal bands.
        if inter.x > self.x {
            out.push(Rect::from_edges(self.x, inter.y, inter.x, inter.y1()));
        }
        // Right band.
        if inter.x1() < self.x1() {
            out.push(Rect::from_edges(inter.x1(), inter.y, self.x1(), inter.y1()));
        }
        out
    }

    /// Smallest rectangle containing both inputs. Empty inputs are ignored.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect::from_edges(
            self.x.min(other.x),
            self.y.min(other.y),
            self.x1().max(other.x1()),
            self.y1().max(other.y1()),
        )
    }

    /// Translates the rectangle so that `origin` becomes `(0, 0)`.
    ///
    /// Panics in debug builds if the rectangle does not lie fully to the
    /// right/below the origin.
    pub fn relative_to(&self, origin_x: u32, origin_y: u32) -> Rect {
        debug_assert!(self.x >= origin_x && self.y >= origin_y);
        Rect::new(self.x - origin_x, self.y - origin_y, self.w, self.h)
    }
}

/// Subtracts every rectangle in `covers` from `target`, returning a set of
/// disjoint rectangles that exactly tile the uncovered remainder.
///
/// This is the geometric core of sub-query generation: the query window minus
/// all regions satisfied from cached blobs yields the regions for which
/// sub-queries must be issued (Fig. 1 of the paper).
pub fn subtract_all(target: &Rect, covers: &[Rect]) -> Vec<Rect> {
    let mut remainder = if target.is_empty() {
        Vec::new()
    } else {
        vec![*target]
    };
    for c in covers {
        if remainder.is_empty() {
            break;
        }
        let mut next = Vec::with_capacity(remainder.len());
        for piece in &remainder {
            next.extend(piece.subtract(c));
        }
        remainder = next;
    }
    remainder
}

/// Total area of a set of *disjoint* rectangles.
pub fn total_area(rects: &[Rect]) -> u64 {
    rects.iter().map(Rect::area).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_and_area() {
        let r = Rect::new(2, 3, 10, 20);
        assert_eq!(r.x1(), 12);
        assert_eq!(r.y1(), 23);
        assert_eq!(r.area(), 200);
        assert!(!r.is_empty());
        assert!(Rect::empty().is_empty());
        assert_eq!(Rect::from_edges(5, 5, 3, 9), Rect::new(5, 5, 0, 4));
    }

    #[test]
    fn contains_basic() {
        let outer = Rect::new(0, 0, 100, 100);
        let inner = Rect::new(10, 10, 20, 20);
        assert!(outer.contains(&inner));
        assert!(!inner.contains(&outer));
        assert!(outer.contains(&outer));
        assert!(outer.contains(&Rect::empty()));
        assert!(!Rect::empty().contains(&inner));
        assert!(outer.contains_point(0, 0));
        assert!(!outer.contains_point(100, 0));
    }

    #[test]
    fn intersect_disjoint_and_touching() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(10, 0, 10, 10); // shares only an edge
        assert!(a.intersect(&b).is_none());
        let c = Rect::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&c), Some(Rect::new(5, 5, 5, 5)));
        assert_eq!(a.intersection_area(&c), 25);
        assert!(a.intersects(&c));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn intersect_empty_is_none() {
        let a = Rect::new(0, 0, 10, 10);
        assert!(a.intersect(&Rect::empty()).is_none());
        assert!(Rect::empty().intersect(&a).is_none());
    }

    #[test]
    fn subtract_non_overlapping_returns_self() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(50, 50, 5, 5);
        assert_eq!(a.subtract(&b), vec![a]);
    }

    #[test]
    fn subtract_full_cover_returns_empty() {
        let a = Rect::new(2, 2, 5, 5);
        let b = Rect::new(0, 0, 100, 100);
        assert!(a.subtract(&b).is_empty());
    }

    #[test]
    fn subtract_center_hole_yields_four_bands() {
        let a = Rect::new(0, 0, 30, 30);
        let hole = Rect::new(10, 10, 10, 10);
        let parts = a.subtract(&hole);
        assert_eq!(parts.len(), 4);
        assert_eq!(total_area(&parts), a.area() - hole.area());
        // Pieces must be disjoint from each other and from the hole.
        for (i, p) in parts.iter().enumerate() {
            assert!(!p.intersects(&hole));
            for q in &parts[i + 1..] {
                assert!(!p.intersects(q), "{p:?} overlaps {q:?}");
            }
        }
    }

    #[test]
    fn subtract_corner_overlap() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(5, 5, 10, 10);
        let parts = a.subtract(&b);
        assert_eq!(total_area(&parts), 100 - 25);
        for p in &parts {
            assert!(a.contains(p));
            assert!(!p.intersects(&b));
        }
    }

    #[test]
    fn subtract_all_multiple_covers() {
        let target = Rect::new(0, 0, 20, 10);
        let covers = [Rect::new(0, 0, 10, 10), Rect::new(10, 0, 5, 10)];
        let rem = subtract_all(&target, &covers);
        assert_eq!(total_area(&rem), 50);
        for r in &rem {
            assert!(target.contains(r));
            for c in &covers {
                assert!(!r.intersects(c));
            }
        }
    }

    #[test]
    fn subtract_all_empty_target() {
        assert!(subtract_all(&Rect::empty(), &[Rect::new(0, 0, 5, 5)]).is_empty());
    }

    #[test]
    fn union_bbox_covers_both() {
        let a = Rect::new(0, 0, 10, 10);
        let b = Rect::new(20, 5, 10, 10);
        let u = a.union_bbox(&b);
        assert!(u.contains(&a) && u.contains(&b));
        assert_eq!(u, Rect::from_edges(0, 0, 30, 15));
        assert_eq!(a.union_bbox(&Rect::empty()), a);
        assert_eq!(Rect::empty().union_bbox(&b), b);
    }

    #[test]
    fn relative_to_translates() {
        let r = Rect::new(10, 20, 5, 5);
        assert_eq!(r.relative_to(10, 20), Rect::new(0, 0, 5, 5));
        assert_eq!(r.relative_to(5, 15), Rect::new(5, 5, 5, 5));
    }
}
