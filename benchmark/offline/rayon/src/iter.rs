//! Producers, adapters and terminal operations.

use std::iter::Sum;
use std::ops::Range;
use std::sync::Arc;

use crate::drive;

/// A splittable producer of `Item`s.
///
/// `len` counts the units `split_at` divides; for every producer but
/// `FlatMapIter` that is also the number of items.
pub trait ParallelIterator: Sized + Send {
    type Item: Send;
    type Seq: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    fn split_at(self, mid: usize) -> (Self, Self);
    fn into_seq(self) -> Self::Seq;

    /// Collects this part on the calling thread. Adapters override it where
    /// a std fast path (exact-size map, whole-`Vec` extend) applies.
    fn collect_part(self) -> Vec<Self::Item> {
        self.into_seq().collect()
    }

    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f: Arc::new(f) }
    }

    /// Maps each item to a sequential iterator and flattens, keeping order.
    fn flat_map_iter<F, I>(self, f: F) -> FlatMapIter<Self, F>
    where
        F: Fn(Self::Item) -> I + Sync + Send,
        I: IntoIterator,
        I::Item: Send,
    {
        FlatMapIter { base: self, f: Arc::new(f) }
    }

    fn filter<F>(self, f: F) -> Filter<Self, F>
    where
        F: Fn(&Self::Item) -> bool + Sync + Send,
    {
        Filter { base: self, f: Arc::new(f) }
    }

    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        drive(self, |part| part.into_seq().for_each(&f));
    }

    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    fn sum<S>(self) -> S
    where
        S: Send + Sum<Self::Item> + Sum<S>,
    {
        drive(self, |part| part.into_seq().sum::<S>()).into_iter().sum()
    }

    fn count(self) -> usize {
        drive(self, |part| part.into_seq().count()).into_iter().sum()
    }

    /// `op` must be associative; parts are reduced in input order.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        drive(self, |part| part.into_seq().fold(identity(), &op)).into_iter().fold(identity(), &op)
    }
}

/// A producer whose `len` is its item count, so positions are meaningful.
pub trait IndexedParallelIterator: ParallelIterator {
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self, offset: 0 }
    }

    /// Pairs items up to the shorter side's length.
    fn zip<Z>(self, other: Z) -> Zip<Self, Z::Iter>
    where
        Z: IntoParallelIterator,
        Z::Iter: IndexedParallelIterator,
    {
        let (a, b) = (self, other.into_par_iter());
        let len = a.len().min(b.len());
        Zip { a: a.split_at(len).0, b: b.split_at(len).0 }
    }
}

pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(par_iter: P) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<P: ParallelIterator<Item = T>>(par_iter: P) -> Self {
        let mut parts = drive(par_iter, P::collect_part);
        if parts.len() == 1 {
            return parts.pop().expect("length checked");
        }
        let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
        for part in parts {
            out.extend(part);
        }
        out
    }
}

pub trait IntoParallelIterator {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send;
    fn into_par_iter(self) -> Self::Iter;
}

impl<P: ParallelIterator> IntoParallelIterator for P {
    type Iter = P;
    type Item = P::Item;
    fn into_par_iter(self) -> P {
        self
    }
}

/// `.par_iter()` on anything whose shared reference is parallel-iterable.
pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    type Item = <&'data C as IntoParallelIterator>::Item;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// `.par_iter_mut()` on anything whose unique reference is parallel-iterable.
pub trait IntoParallelRefMutIterator<'data> {
    type Iter: ParallelIterator<Item = Self::Item>;
    type Item: Send + 'data;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: 'data + ?Sized> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

// ---------------------------------------------------------------- ranges

/// Parallel iterator over an integer range.
pub struct RangeIter<T> {
    range: Range<T>,
}

macro_rules! range_producers {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Iter = RangeIter<$t>;
            type Item = $t;
            fn into_par_iter(self) -> RangeIter<$t> {
                RangeIter { range: self }
            }
        }

        impl ParallelIterator for RangeIter<$t> {
            type Item = $t;
            type Seq = Range<$t>;
            fn len(&self) -> usize {
                if self.range.start < self.range.end {
                    usize::try_from(self.range.end - self.range.start)
                        .expect("range too long to split by usize index")
                } else {
                    0
                }
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                assert!(mid <= self.len(), "split point past the end");
                let cut = self.range.start + mid as $t;
                (
                    RangeIter { range: self.range.start..cut },
                    RangeIter { range: cut..self.range.end },
                )
            }
            fn into_seq(self) -> Range<$t> {
                self.range
            }
        }

        impl IndexedParallelIterator for RangeIter<$t> {}
    )*};
}
range_producers!(u32, u64, usize);

// ---------------------------------------------------------------- slices

pub struct SliceIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for SliceIter<'data, T> {
    type Item = &'data T;
    type Seq = std::slice::Iter<'data, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at(mid);
        (SliceIter { slice: a }, SliceIter { slice: b })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

impl<T: Sync> IndexedParallelIterator for SliceIter<'_, T> {}

pub struct SliceIterMut<'data, T> {
    slice: &'data mut [T],
}

impl<'data, T: Send> ParallelIterator for SliceIterMut<'data, T> {
    type Item = &'data mut T;
    type Seq = std::slice::IterMut<'data, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at_mut(mid);
        (SliceIterMut { slice: a }, SliceIterMut { slice: b })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

impl<T: Send> IndexedParallelIterator for SliceIterMut<'_, T> {}

impl<'data, T: Sync> IntoParallelIterator for &'data [T] {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn into_par_iter(self) -> Self::Iter {
        SliceIter { slice: self }
    }
}

impl<'data, T: Sync> IntoParallelIterator for &'data Vec<T> {
    type Iter = SliceIter<'data, T>;
    type Item = &'data T;
    fn into_par_iter(self) -> Self::Iter {
        SliceIter { slice: self }
    }
}

impl<'data, T: Send> IntoParallelIterator for &'data mut [T] {
    type Iter = SliceIterMut<'data, T>;
    type Item = &'data mut T;
    fn into_par_iter(self) -> Self::Iter {
        SliceIterMut { slice: self }
    }
}

impl<'data, T: Send> IntoParallelIterator for &'data mut Vec<T> {
    type Iter = SliceIterMut<'data, T>;
    type Item = &'data mut T;
    fn into_par_iter(self) -> Self::Iter {
        SliceIterMut { slice: self }
    }
}

/// Fixed-size windows of a slice; `len` counts windows.
pub struct Chunks<'data, T> {
    slice: &'data [T],
    size: usize,
}

impl<'data, T: Sync> ParallelIterator for Chunks<'data, T> {
    type Item = &'data [T];
    type Seq = std::slice::Chunks<'data, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.slice.split_at((mid * self.size).min(self.slice.len()));
        (Chunks { slice: a, size: self.size }, Chunks { slice: b, size: self.size })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks(self.size)
    }
}

impl<T: Sync> IndexedParallelIterator for Chunks<'_, T> {}

pub struct ChunksMut<'data, T> {
    slice: &'data mut [T],
    size: usize,
}

impl<'data, T: Send> ParallelIterator for ChunksMut<'data, T> {
    type Item = &'data mut [T];
    type Seq = std::slice::ChunksMut<'data, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let at = (mid * self.size).min(self.slice.len());
        let (a, b) = self.slice.split_at_mut(at);
        (ChunksMut { slice: a, size: self.size }, ChunksMut { slice: b, size: self.size })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.chunks_mut(self.size)
    }
}

impl<T: Send> IndexedParallelIterator for ChunksMut<'_, T> {}

pub trait ParallelSlice<T: Sync> {
    fn as_parallel_slice(&self) -> &[T];

    fn par_chunks(&self, chunk_size: usize) -> Chunks<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        Chunks { slice: self.as_parallel_slice(), size: chunk_size }
    }
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn as_parallel_slice(&self) -> &[T] {
        self
    }
}

pub trait ParallelSliceMut<T: Send> {
    fn as_parallel_slice_mut(&mut self) -> &mut [T];

    fn par_chunks_mut(&mut self, chunk_size: usize) -> ChunksMut<'_, T> {
        assert!(chunk_size != 0, "chunk_size must not be zero");
        ChunksMut { slice: self.as_parallel_slice_mut(), size: chunk_size }
    }
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn as_parallel_slice_mut(&mut self) -> &mut [T] {
        self
    }
}

// ------------------------------------------------------------------ Vec

pub struct VecIter<T> {
    vec: Vec<T>,
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = VecIter<T>;
    type Item = T;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { vec: self }
    }
}

impl<T: Send> ParallelIterator for VecIter<T> {
    type Item = T;
    type Seq = std::vec::IntoIter<T>;
    fn len(&self) -> usize {
        self.vec.len()
    }
    fn split_at(mut self, mid: usize) -> (Self, Self) {
        let tail = self.vec.split_off(mid);
        (self, VecIter { vec: tail })
    }
    fn into_seq(self) -> Self::Seq {
        self.vec.into_iter()
    }
}

impl<T: Send> IndexedParallelIterator for VecIter<T> {}

// ------------------------------------------------------------- adapters

pub struct Map<B, F> {
    base: B,
    f: Arc<F>,
}

pub struct MapSeq<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I: Iterator, F: Fn(I::Item) -> R, R> Iterator for MapSeq<I, F> {
    type Item = R;
    #[inline]
    fn next(&mut self) -> Option<R> {
        self.base.next().map(|item| (self.f)(item))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.base.size_hint()
    }
}

impl<B, F, R> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;
    type Seq = MapSeq<B::Seq, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (Map { base: a, f: Arc::clone(&self.f) }, Map { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::Seq {
        MapSeq { base: self.base.into_seq(), f: self.f }
    }
    fn collect_part(self) -> Vec<R> {
        let f = self.f;
        self.base.into_seq().map(|item| f(item)).collect()
    }
}

impl<B, F, R> IndexedParallelIterator for Map<B, F>
where
    B: IndexedParallelIterator,
    F: Fn(B::Item) -> R + Sync + Send,
    R: Send,
{
}

pub struct FlatMapIter<B, F> {
    base: B,
    f: Arc<F>,
}

impl<B, F, I> ParallelIterator for FlatMapIter<B, F>
where
    B: ParallelIterator,
    F: Fn(B::Item) -> I + Sync + Send,
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    type Seq = FlatMapSeq<B::Seq, F, I>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (FlatMapIter { base: a, f: Arc::clone(&self.f) }, FlatMapIter { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::Seq {
        FlatMapSeq { base: self.base.into_seq(), f: self.f, front: None }
    }
    fn collect_part(self) -> Vec<I::Item> {
        let mut out = Vec::new();
        for item in self.base.into_seq() {
            out.extend((self.f)(item));
        }
        out
    }
}

pub struct FlatMapSeq<B, F, I: IntoIterator> {
    base: B,
    f: Arc<F>,
    front: Option<I::IntoIter>,
}

impl<B, F, I> Iterator for FlatMapSeq<B, F, I>
where
    B: Iterator,
    F: Fn(B::Item) -> I,
    I: IntoIterator,
{
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        loop {
            if let Some(item) = self.front.as_mut().and_then(Iterator::next) {
                return Some(item);
            }
            self.front = Some((self.f)(self.base.next()?).into_iter());
        }
    }
}

pub struct Filter<B, F> {
    base: B,
    f: Arc<F>,
}

pub struct FilterSeq<I, F> {
    base: I,
    f: Arc<F>,
}

impl<I: Iterator, F: Fn(&I::Item) -> bool> Iterator for FilterSeq<I, F> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.base.by_ref().find(|item| (self.f)(item))
    }
}

impl<B, F> ParallelIterator for Filter<B, F>
where
    B: ParallelIterator,
    F: Fn(&B::Item) -> bool + Sync + Send,
{
    type Item = B::Item;
    type Seq = FilterSeq<B::Seq, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (Filter { base: a, f: Arc::clone(&self.f) }, Filter { base: b, f: self.f })
    }
    fn into_seq(self) -> Self::Seq {
        FilterSeq { base: self.base.into_seq(), f: self.f }
    }
}

pub struct Enumerate<B> {
    base: B,
    offset: usize,
}

impl<B: IndexedParallelIterator> ParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);
    type Seq = std::iter::Zip<Range<usize>, B::Seq>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a, b) = self.base.split_at(mid);
        (
            Enumerate { base: a, offset: self.offset },
            Enumerate { base: b, offset: self.offset + mid },
        )
    }
    fn into_seq(self) -> Self::Seq {
        (self.offset..self.offset + self.base.len()).zip(self.base.into_seq())
    }
}

impl<B: IndexedParallelIterator> IndexedParallelIterator for Enumerate<B> {}

/// Both sides are trimmed to the same length on construction.
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> ParallelIterator for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = std::iter::Zip<A::Seq, B::Seq>;
    fn len(&self) -> usize {
        self.a.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (a0, a1) = self.a.split_at(mid);
        let (b0, b1) = self.b.split_at(mid);
        (Zip { a: a0, b: b0 }, Zip { a: a1, b: b1 })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

impl<A: IndexedParallelIterator, B: IndexedParallelIterator> IndexedParallelIterator for Zip<A, B> {}
