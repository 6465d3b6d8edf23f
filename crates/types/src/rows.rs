//! Variable-length rows stored back to back under one offset table.

/// One list of items per row, stored flat: row `i` is
/// `items[starts[i]..starts[i + 1]]`, with `u32` offsets.
///
/// Rows are appended one at a time: [`RowTable::push`] adds items to the
/// open row and [`RowTable::close_row`] ends it. A table built to a known
/// size (see [`RowTable::with_capacity`] and [`RowTable::group`]) takes
/// two heap blocks whatever its row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowTable<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

impl<T> Default for RowTable<T> {
    fn default() -> Self {
        RowTable::new()
    }
}

impl<T> RowTable<T> {
    /// A table of no rows.
    pub fn new() -> Self {
        RowTable::with_capacity(0, 0)
    }

    /// A table of no rows with room for `rows` rows of `items` items in
    /// all.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        let mut starts = Vec::with_capacity(rows + 1);
        starts.push(0);
        RowTable {
            starts,
            items: Vec::with_capacity(items),
        }
    }

    /// A table over offsets and items laid out as [`RowTable`] keeps them.
    ///
    /// # Panics
    ///
    /// Panics unless `starts` begins at 0, never decreases and ends at
    /// `items.len()`.
    pub fn from_parts(starts: Vec<u32>, items: Vec<T>) -> Self {
        assert!(
            starts.first() == Some(&0)
                && starts.windows(2).all(|w| w[0] <= w[1])
                && starts.last().map(|&e| e as usize) == Some(items.len()),
            "row offsets must run from 0 to the item count"
        );
        RowTable { starts, items }
    }

    /// Number of closed rows.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether the table holds no closed row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The items of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a closed row.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.items[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Every item, row after row.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Appends an item to the open row.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Drops the growth slack of both vectors.
    pub fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    /// Unused capacity of both vectors, in elements.
    pub fn slack(&self) -> usize {
        self.starts.capacity() - self.starts.len() + self.items.capacity() - self.items.len()
    }

    /// Ends the open row.
    ///
    /// # Panics
    ///
    /// Panics if the table holds `u32::MAX` or more items.
    pub fn close_row(&mut self) {
        let end = u32::try_from(self.items.len()).expect("row items fit u32 offsets");
        self.starts.push(end);
    }
}

impl<T: Copy> RowTable<T> {
    /// Appends `items` as one closed row.
    pub fn push_row(&mut self, items: &[T]) {
        self.items.extend_from_slice(items);
        self.close_row();
    }

    /// A table of `rows` rows where row `r` holds the items of the pairs
    /// `(r, item)` that `pairs` yields, in the order it yields them. One
    /// pass over `pairs` counts the rows, a second places the items, so
    /// both vectors are exact: two heap blocks whatever the row count.
    ///
    /// `pairs` must yield the same pairs each time it is called.
    ///
    /// # Panics
    ///
    /// Panics if a pair names a row past `rows`.
    pub fn group<I: Iterator<Item = (usize, T)>>(rows: usize, pairs: impl Fn() -> I) -> Self {
        let mut starts = vec![0u32; rows + 1];
        let mut fill = None;
        for (row, item) in pairs() {
            starts[row + 1] += 1;
            fill.get_or_insert(item);
        }
        for row in 0..rows {
            starts[row + 1] += starts[row];
        }
        let mut items = fill.map_or_else(Vec::new, |fill| vec![fill; starts[rows] as usize]);
        // Each row's start is its cursor while the items are placed, and
        // ends as its end, which is the next row's start.
        for (row, item) in pairs() {
            items[starts[row] as usize] = item;
            starts[row] += 1;
        }
        starts.pop();
        starts.insert(0, 0);
        RowTable::from_parts(starts, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouping_keeps_each_rows_order_and_appending_extends_rows() {
        let pairs = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd')];
        let mut table = RowTable::group(4, || pairs.iter().copied());
        assert_eq!(table.len(), 4);
        assert_eq!(
            [table.row(0), table.row(1), table.row(2), table.row(3)],
            [&['b', 'd'][..], &[], &['a', 'c'], &[]]
        );
        assert_eq!(table.slack(), 0);
        table.push_row(&[]);
        table.push_row(&['e', 'f']);
        assert_eq!(table.len(), 6);
        assert_eq!(table.items(), ['b', 'd', 'a', 'c', 'e', 'f']);
        assert_eq!((table.row(4), table.row(5)), (&[][..], &['e', 'f'][..]));
        table.shrink_to_fit();
        assert_eq!(table.slack(), 0);
        assert!(RowTable::<u32>::group(3, std::iter::empty)
            .items()
            .is_empty());
    }
}
