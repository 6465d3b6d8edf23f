//! Variable-length rows stored back to back under one offset table.

/// One list of items per row, stored flat: row `i` is
/// `items[starts[i]..starts[i + 1]]`, with `u32` offsets.
///
/// Rows are appended one at a time: [`RowTable::push`] adds items to the
/// open row and [`RowTable::close_row`] ends it. A table built to a known
/// size (see [`RowTable::with_capacity`]) takes two heap blocks whatever
/// its row count.
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
}
