//! Short id lists stored inside the instruction.
//!
//! Nearly every instruction has at most three value operands and at most
//! two block operands, so an [`InlineList`] keeps up to `N` ids in place
//! and spills to one boxed `Vec` only when it outgrows them. Either way it
//! is 16 bytes, and it derefs to a slice of its ids, so reads index and
//! slice it as they would a `Vec`.
//!
//! A list spills when a push, or room made for ids about to be pushed
//! ([`InlineList::reserve`], [`InlineList::with_capacity`]), needs more
//! than `N` ids. It stays spilled while it grows, and
//! [`InlineList::clear`] brings it back inline; nothing else shortens a
//! list.

use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::ids::{BlockId, ValueId};

mod sealed {
    /// An id type an [`super::InlineList`] can hold.
    pub trait Id: Copy {
        /// Fills the inline slots past the list's length. It is never
        /// read as an element, and no function or module makes an id
        /// this large (a `ValueId` hole has a tag no value has).
        const HOLE: Self;
    }
}

impl sealed::Id for ValueId {
    const HOLE: Self = ValueId(u32::MAX);
}

impl sealed::Id for BlockId {
    const HOLE: Self = BlockId(u32::MAX);
}

/// Up to `N` ids in place, or any number in one boxed `Vec`.
#[derive(Clone)]
pub struct InlineList<T: sealed::Id, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T, const N: usize> {
    /// `ids[..len]` are the list; the rest are holes.
    Inline { len: u8, ids: [T; N] },
    /// More than `N` ids. Boxed, because a bare `Vec` is 24 bytes and
    /// would make every list 32.
    #[allow(clippy::box_collection)]
    Spilled(Box<Vec<T>>),
}

impl<T: sealed::Id, const N: usize> InlineList<T, N> {
    /// An empty list.
    pub const fn new() -> Self {
        InlineList(Repr::Inline {
            len: 0,
            ids: [T::HOLE; N],
        })
    }

    /// An empty list with room for `n` ids: spilled at once if they will
    /// not fit in place.
    pub fn with_capacity(n: usize) -> Self {
        let mut list = Self::new();
        list.reserve(n);
        list
    }

    /// Appends `id`, spilling the list if it is full.
    pub fn push(&mut self, id: T) {
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) < N => {
                ids[usize::from(*len)] = id;
                *len += 1;
            }
            Repr::Inline { ids, .. } => {
                let mut spilled = Vec::with_capacity(2 * N);
                spilled.extend_from_slice(ids);
                spilled.push(id);
                self.0 = Repr::Spilled(Box::new(spilled));
            }
            Repr::Spilled(v) => v.push(id),
        }
    }

    /// Makes room for `additional` more ids: spills the list at once, at
    /// the size it will have, if they will not fit in place.
    pub fn reserve(&mut self, additional: usize) {
        match &mut self.0 {
            Repr::Inline { len, ids } if usize::from(*len) + additional > N => {
                let mut spilled = Vec::with_capacity(usize::from(*len) + additional);
                spilled.extend_from_slice(&ids[..usize::from(*len)]);
                self.0 = Repr::Spilled(Box::new(spilled));
            }
            Repr::Inline { .. } => {}
            Repr::Spilled(v) => v.reserve(additional),
        }
    }

    /// Removes every id, returning the list to its inline form.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// True if the ids live in a boxed `Vec` rather than in place.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Repr::Spilled(_))
    }

    /// Bytes the list owns on the heap: the boxed `Vec` and its buffer,
    /// or nothing while inline.
    pub fn heap_bytes(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Spilled(v) => {
                std::mem::size_of::<Vec<T>>() + v.capacity() * std::mem::size_of::<T>()
            }
        }
    }
}

impl<T: sealed::Id, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: sealed::Id, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, ids } => &ids[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: sealed::Id, const N: usize> DerefMut for InlineList<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, ids } => &mut ids[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T: sealed::Id, const N: usize> Extend<T> for InlineList<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        match &mut self.0 {
            Repr::Spilled(v) => v.extend(iter),
            Repr::Inline { .. } => iter.for_each(|id| self.push(id)),
        }
    }
}

impl<T: sealed::Id, const N: usize> FromIterator<T> for InlineList<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::new();
        list.extend(iter);
        list
    }
}

impl<T: sealed::Id, const N: usize> From<Vec<T>> for InlineList<T, N> {
    /// Takes the `Vec` over as the spill if it holds more than `N` ids.
    fn from(ids: Vec<T>) -> Self {
        if ids.len() > N {
            InlineList(Repr::Spilled(Box::new(ids)))
        } else {
            Self::from(&ids[..])
        }
    }
}

impl<T: sealed::Id, const N: usize> From<&[T]> for InlineList<T, N> {
    fn from(ids: &[T]) -> Self {
        ids.iter().copied().collect()
    }
}

impl<T: sealed::Id, const N: usize, const M: usize> From<[T; M]> for InlineList<T, N> {
    fn from(ids: [T; M]) -> Self {
        ids.into_iter().collect()
    }
}

impl<'a, T: sealed::Id, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, T: sealed::Id, const N: usize> IntoIterator for &'a mut InlineList<T, N> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

/// Contents only: an inline and a spilled list of the same ids are equal.
impl<T: sealed::Id + PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Prints as a `Vec` of the same ids does: `[v1, v2]`.
impl<T: sealed::Id + fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Instruction, Operands, Targets};
    use f3m_prng::SmallRng;

    fn v(i: usize) -> ValueId {
        ValueId::constant(i)
    }

    fn b(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    /// No per-instruction heap lists: building or cloning IR makes no
    /// allocation per instruction. A `Vec` operand or target field (24 B
    /// where a list is 16 B) makes an instruction 64 B and fails here.
    #[test]
    fn instructions_hold_short_lists_in_place() {
        assert_eq!(std::mem::size_of::<Instruction>(), 56);
        assert_eq!(std::mem::size_of::<Operands>(), 16);
        assert_eq!(std::mem::size_of::<Targets>(), 16);
        let ops: Operands = [v(1), v(2), v(3)].into();
        let targets: Targets = [b(1), b(2)].into();
        assert!(!ops.is_spilled() && !targets.is_spilled());
        assert_eq!((ops.heap_bytes(), targets.heap_bytes()), (0, 0));
        let ops: Operands = vec![v(1), v(2), v(3), v(4)].into();
        let targets: Targets = vec![b(1), b(2), b(3)].into();
        assert!(ops.is_spilled() && targets.is_spilled());
        assert!(ops.heap_bytes() >= 24 + 4 * 4);
    }

    #[test]
    fn debug_and_equality_follow_contents() {
        let inline: Operands = [v(1), v(2)].into();
        assert_eq!(format!("{inline:?}"), "[const1, const2]");
        assert_eq!(format!("{inline:#?}"), format!("{:#?}", vec![v(1), v(2)]));
        let mut spilled: Operands = [v(7), v(8), v(9), v(10)].into();
        spilled.clear();
        spilled.extend([v(1), v(2)]);
        assert_eq!(spilled, inline);
        assert_eq!(format!("{:?}", Targets::new()), "[]");
    }

    /// Ids the random steps draw; `id(LIMIT)` is in no list.
    const LIMIT: usize = 1000;

    /// One random step applied to the list and to its `Vec` model, drawn
    /// from every way a list is built or changed. No step grows the model
    /// past 8 ids.
    fn step<T: sealed::Id, const N: usize>(
        rng: &mut SmallRng,
        list: &mut InlineList<T, N>,
        model: &mut Vec<T>,
        id: fn(usize) -> T,
    ) {
        let fresh = |rng: &mut SmallRng, n: usize| -> Vec<T> {
            (0..n).map(|_| id(rng.gen_range(0..LIMIT))).collect()
        };
        let room = 8 - model.len();
        let (op, n) = (rng.gen_range(0..9u32), rng.gen_range(0..=room));
        match op {
            0 if room > 0 => {
                let x = fresh(rng, 1)[0];
                list.push(x);
                model.push(x);
            }
            // `extend` from an iterator that knows its length, which
            // spills at most once.
            1 => {
                let more = fresh(rng, n);
                list.extend(more.iter().copied());
                model.extend(&more);
            }
            // `extend` from one that reports no lower bound, which grows
            // one push at a time.
            2 => {
                let more = fresh(rng, n);
                list.extend(more.iter().copied().filter(|_| true));
                model.extend(&more);
            }
            // `reserve`, then the pushes it made room for.
            3 => {
                list.reserve(n);
                for x in fresh(rng, n) {
                    list.push(x);
                    model.push(x);
                }
            }
            4 => {
                list.clear();
                model.clear();
            }
            5 => {
                *model = fresh(rng, n + model.len());
                *list = match rng.gen_range(0..3u32) {
                    0 => model.iter().copied().collect(),
                    1 => InlineList::from(model.clone()),
                    _ => {
                        let mut built = InlineList::with_capacity(model.len());
                        model.iter().for_each(|&x| built.push(x));
                        built
                    }
                };
            }
            6 if !model.is_empty() => {
                let at = rng.gen_range(0..model.len());
                let x = fresh(rng, 1)[0];
                list[at] = x;
                model[at] = x;
            }
            7 => {
                let xs = fresh(rng, model.len());
                for ((l, m), &x) in list.iter_mut().zip(model.iter_mut()).zip(&xs) {
                    *l = x;
                    *m = x;
                }
            }
            _ => {}
        }
    }

    /// `list` holds `model`: alike by content, `Debug`, equality against
    /// either form and `clone`, and spilled exactly when longer than `N`.
    fn check<T: sealed::Id + PartialEq + fmt::Debug, const N: usize>(
        list: &InlineList<T, N>,
        model: &[T],
        id: fn(usize) -> T,
        what: &str,
    ) {
        assert_eq!(&list[..], model, "{what}");
        assert_eq!(list.is_spilled(), model.len() > N, "{what}: spill rule");
        assert_eq!(format!("{list:?}"), format!("{model:?}"), "{what}: Debug");
        assert_eq!(
            format!("{:?}", list.clone()),
            format!("{model:?}"),
            "{what}: clone"
        );
        let inline: InlineList<T, N> = model.iter().copied().collect();
        let mut spilled = InlineList::<T, N>::from(vec![id(0); N + 1]);
        spilled.clear();
        spilled.extend(model.iter().copied());
        assert!(
            *list == inline && *list == spilled,
            "{what}: equal contents"
        );
        if !model.is_empty() {
            let mut other = model.to_vec();
            other[model.len() - 1] = id(LIMIT);
            assert!(*list != InlineList::from(other), "{what}: unequal contents");
        }
    }

    /// The lists against `Vec` across the inline/spill boundary, at
    /// lengths 0 to 8.
    ///
    /// Mutation check (scratch copy): a spill that drops the last inline
    /// id, or a `clear` that leaves an inline list's length as it was,
    /// each fail this test.
    #[test]
    fn lists_match_vec() {
        fn run<T: sealed::Id + PartialEq + fmt::Debug, const N: usize>(id: fn(usize) -> T) {
            let seeds = if cfg!(debug_assertions) {
                1_000
            } else {
                10_000
            };
            for seed in 0..seeds {
                let mut rng = SmallRng::seed_from_u64(seed);
                let (mut list, mut model) = (InlineList::<T, N>::new(), Vec::new());
                for i in 0..40 {
                    step(&mut rng, &mut list, &mut model, id);
                    check(&list, &model, id, &format!("seed {seed} step {i}"));
                }
            }
        }
        run::<ValueId, 3>(v);
        run::<BlockId, 2>(b);
    }
}
