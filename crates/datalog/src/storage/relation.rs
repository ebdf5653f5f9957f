//! In-memory relation (set of same-arity tuples) with duplicate elimination and lazily
//! built secondary hash indexes — flat tables over a flat row store.
//!
//! # Layout
//!
//! * **Rows** live row-major in one `Vec<Const>`; row `i` is
//!   `flat[i * arity..(i + 1) * arity]`. The store is always *dense*: ids `0..len`
//!   are exactly the live rows, so scans are a linear walk with no liveness test.
//! * **Duplicate elimination** is an open-addressed table of row ids (`Slots`): a
//!   power-of-two `Vec<u64>`, linear probing from a home slot taken from the tuple
//!   hash's *high* half (Fx's low bits are weak on small integers) with its bits
//!   spread, since Fx's top bits crowd consecutive integers into clusters (the
//!   function `spread` has the numbers). A slot holds a row id under the high half
//!   of the hash it is filed under (its *tag*); a lookup skips slots whose tag
//!   differs and verifies the rest against the row they name, so hash collisions
//!   are handled correctly and a miss rarely touches a row.
//! * **A secondary index** maps the *hash* of a column-subset key to the rows whose
//!   key columns produce that hash, so neither insertion nor probing ever
//!   materializes a key tuple: a second `Slots` table holds the *head* row of each
//!   distinct key hash, and a per-row `Link` threads the rows sharing it into a
//!   chain (a new row goes in front). [`Relation::probe_candidates`] walks that chain; callers
//!   that need exact row sets verify candidates against the flat store
//!   ([`Relation::probe`] does this; the join pipeline folds the verification into
//!   its binding loop, which compares every row against the pattern anyway).
//!   Indexes are built on first use and maintained on every insertion and removal.
//! * **An index over rows the relation already holds** — what every evaluation's
//!   plan asks of the EDB — is built in one pass and sized once: every row's key is
//!   hashed once into a buffer, the head table is allocated for the number of
//!   distinct key hashes (a low estimate by linear counting, one bit per row), and
//!   the rows are filed in row-id order by the step a single insertion takes, a tag
//!   match being checked against the buffered hash instead of by re-hashing the
//!   chain's head row. The chains, and with them probe order and every count the
//!   evaluator makes, are those of an index maintained while the rows were
//!   inserted; so is the table's capacity (an estimate that falls short costs one
//!   doubling while filing, one that comes out high is shrunk afterwards). An
//!   empty relation's index allocates nothing.
//!
//! # Invariants
//!
//! * No tombstones anywhere: removing a table entry shifts the rest of its probe
//!   run back, and tables are kept at most half full, so a probe ends at the first
//!   empty slot and the cost of a lookup never depends on removal history.
//! * No per-key heap allocation: a relation with `k` indexes owns `2 + 2k` buffers
//!   whatever it holds. `clone` is that many `memcpy`s (what remains is
//!   page-faulting the copies) and `drop` that many frees.
//! * **Removal reorders.** [`Relation::remove`] unlinks the doomed row from the
//!   dedup table and every chain, moves the *last* row into the hole and re-points
//!   that row's table entries. Its cost depends on the tuple, never on the size of
//!   the relation; survivors do not keep their insertion order, and row ids taken
//!   before a removal are invalid after it. [`IndexId`] handles stay valid.
//! * Chains are doubly linked. A singly linked chain would save 4 bytes per row per
//!   index, but unlinking would walk the chain from its head, and retraction meets
//!   hubs: the over-deleted cone of one edge of a long path is thousands of rows
//!   *per key*. Measured on this layout, removing the older half of one chain
//!   costs 42 ns per row doubly linked against 5.9 µs singly linked at 3 000 rows
//!   per key, 37 ns against 89 µs at 50 000, and 73 against 133 ns at 12; the extra
//!   store per insertion disappears in the noise of a million inserts.
//!
//! [`Relation::ensure_index`] returns a stable [`IndexId`] handle; resolving a column
//! subset to its handle once (at plan-resolution time) lets the evaluator probe with
//! [`Relation::probe_candidates`] without ever searching the index list again.

use crate::ast::Const;
use crate::fx::FxHasher;
use std::hash::Hasher as _;

/// A row identifier within one [`Relation`]: dense (`0..len`), stable under
/// insertion, renumbered by any removal.
pub type RowId = u32;

/// "No row": an empty table slot, or the end of a chain.
const NONE: RowId = RowId::MAX;

/// A stable handle for a secondary index of one [`Relation`].
///
/// Handles are positions in the relation's index list; they stay valid across
/// insertions, removals and [`Relation::clear`] (which keeps index definitions). They
/// are only meaningful for the relation that returned them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexId(u32);

/// A set of tuples of fixed arity.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    arity: usize,
    /// Number of rows (kept explicitly: a zero-arity relation stores no cells).
    len: usize,
    flat: Vec<Const>,
    /// Tuple hash → the row holding that tuple.
    dedup: Slots,
    /// Secondary indexes, keyed by the (sorted) column subset they cover.
    indexes: Vec<ColumnIndex>,
}

#[derive(Clone, Debug)]
struct ColumnIndex {
    columns: Vec<usize>,
    /// Key hash → the first row of the chain of rows whose key columns produce it.
    heads: Slots,
    /// Per row, its neighbours in that chain.
    links: Vec<Link>,
}

#[derive(Clone, Copy, Debug)]
struct Link {
    next: RowId,
    prev: RowId,
}

/// An open-addressed table of row ids: power-of-two capacity, linear probing from a
/// home slot decided by the hash's high half (see [`spread`]), at most half full, no
/// tombstones. A slot packs that half of the hash its row is filed under (the *tag*)
/// above the row id, so a probe skips foreign entries without touching their rows,
/// and entries can be moved — by growth, by the backward shift of a removal —
/// without rehashing anything.
#[derive(Clone, Debug, Default)]
struct Slots {
    slots: Vec<u64>,
    used: usize,
}

/// An empty slot: the row-id half is [`NONE`], which no stored entry has.
const EMPTY: u64 = u64::MAX;

impl Slots {
    /// Smallest allocated capacity. Small tables are kept sparse on purpose: a join
    /// probes a round's delta once per outer row, the delta is usually a handful of
    /// rows, and nearly every probe misses — in a half-full table "is the home slot
    /// empty?" is then a coin flip that the branch predictor loses (5.4 against
    /// 1.6 ns per miss, measured on a 4-row delta under a 29 k-row scan).
    const MIN_CAPACITY: usize = 64;

    /// The home slot of a hash — or of an entry, whose tag holds the bits that decide
    /// it (capacities stay below 2^32: a relation holds fewer than 2^31 rows).
    #[inline]
    fn home(&self, word: u64) -> usize {
        (spread(word) >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// Walk the probe run of `hash`: `Ok(slot)` of the first entry with its tag that
    /// `hit` accepts, or `Err(slot)` of the empty slot that ends the run (`Err(0)` in
    /// an unallocated table, which [`Slots::insert`] grows before using the slot).
    #[inline]
    fn find(&self, hash: u64, mut hit: impl FnMut(RowId) -> bool) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            let entry = self.slots[slot];
            if entry == EMPTY {
                return Err(slot);
            }
            if entry >> 32 == hash >> 32 && hit(entry as RowId) {
                return Ok(slot);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The row filed in `slot`.
    #[inline]
    fn row(&self, slot: usize) -> RowId {
        self.slots[slot] as RowId
    }

    /// Re-point `slot` at row `id`, which is filed under the same hash.
    #[inline]
    fn set_row(&mut self, slot: usize, id: RowId) {
        self.slots[slot] = (self.slots[slot] & !u64::from(NONE)) | u64::from(id);
    }

    /// The slot holding `id`, which is filed under `hash`.
    #[inline]
    fn slot_of(&self, hash: u64, id: RowId) -> usize {
        self.find(hash, |row| row == id)
            .expect("a stored row is filed under its hash")
    }

    /// File `id` under `hash` at `free`, the empty slot [`Slots::find`] ended on.
    #[inline]
    fn insert(&mut self, hash: u64, id: RowId, mut free: usize) {
        if (self.used + 1) * 2 > self.slots.len() {
            self.grow();
            free = self.find(hash, |_| false).unwrap_err();
        }
        self.slots[free] = (hash & !u64::from(NONE)) | u64::from(id);
        self.used += 1;
    }

    /// The capacity that filing `entries` one by one grows an unallocated table to:
    /// none for none, else the smallest power of two of at least
    /// [`Slots::MIN_CAPACITY`] slots that holds them at most half full.
    fn capacity_for(entries: usize) -> usize {
        match entries {
            0 => 0,
            _ => (entries * 2).next_power_of_two().max(Self::MIN_CAPACITY),
        }
    }

    /// Double the capacity and re-file every entry.
    #[cold]
    fn grow(&mut self) {
        self.resize((self.slots.len() * 2).max(Self::MIN_CAPACITY));
    }

    /// Move every entry into a fresh table of `capacity` slots: a power of two that
    /// holds them at most half full, or none when there are none.
    fn resize(&mut self, capacity: usize) {
        debug_assert!(capacity.count_ones() <= 1 && self.used * 2 <= capacity);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; capacity]);
        for entry in old.into_iter().filter(|&entry| entry != EMPTY) {
            let free = self.find(entry, |_| false).unwrap_err();
            self.slots[free] = entry;
        }
    }

    /// Empty `hole`, shifting the rest of its probe run back so that every entry
    /// stays reachable from its home slot without a tombstone.
    fn remove(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = (hole + 1) & mask;
        while self.slots[slot] != EMPTY {
            let entry = self.slots[slot];
            // It may fill the hole iff the hole lies on its way from home to here.
            let from_home = slot.wrapping_sub(self.home(entry)) & mask;
            if from_home >= (slot.wrapping_sub(hole) & mask) {
                self.slots[hole] = entry;
                hole = slot;
            }
            slot = (slot + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        self.used -= 1;
    }

    /// Empty the table. `hashes` yields the hash of every entry (a hash may repeat);
    /// it is only walked when the table is sparse, which keeps the cost proportional
    /// to the entries rather than to a capacity an earlier, larger content left. From
    /// each entry's home slot the walk empties slots up to the first empty one: every
    /// entry lies on such a run, and a run that meets a slot emptied by an earlier
    /// walk meets the rest of it emptied too.
    ///
    /// An empty table is left alone, allocated or not. That is not only free: a
    /// `fill` of the zero slots of an unallocated table is a zero-length `memset` on
    /// a dangling pointer, which took 133 ns a call on an AVX-512 Xeon (a fill of
    /// eight slots took 3), about half of a one-fact semi-naive round.
    fn clear(&mut self, hashes: impl Iterator<Item = u64>) {
        if self.used == 0 {
            return;
        }
        if self.used * 16 >= self.slots.len() {
            self.slots.fill(EMPTY);
        } else {
            let mask = self.slots.len() - 1;
            for hash in hashes {
                let mut slot = self.home(hash);
                while self.slots[slot] != EMPTY {
                    self.slots[slot] = EMPTY;
                    slot = (slot + 1) & mask;
                }
            }
        }
        self.used = 0;
    }
}

/// The tag of `word` (its high half) with its bits spread: folded onto itself, times
/// an odd constant; a table's home slot is its top bits. Fx hashes an integer by
/// multiplying it by ⌊2^64/π⌋, and as 113/355 is within 3·10⁻⁸ of 1/π, the products
/// of consecutive integers crowd together in their top bits: those of 8 190
/// consecutive keys take 971 of the 8 192 values of 13 bits. A table homing them by
/// those bits filed them 9.3 slots from home on average (simulated, 16 384 slots),
/// and spread 0.5, as random keys. Hashes of several columns lose a little: the
/// 7 260 pairs of a 120-node chain's closure landed 0.08 slots from home by the top
/// bits and 0.39 spread, as random keys do.
#[inline]
fn spread(word: u64) -> u32 {
    let tag = (word >> 32) as u32;
    (tag ^ (tag >> 16)).wrapping_mul(0x045d_9f3b)
}

/// Row `id` of a flat row store (a free function, so that the tables can be
/// updated while the rows are read).
#[inline]
fn row_of(flat: &[Const], arity: usize, id: RowId) -> &[Const] {
    let start = id as usize * arity;
    &flat[start..start + arity]
}

/// Prepend `id`, the newest row of an index, to the chain of its key hash `hash`;
/// `keyed(head)` tells whether the head row of a chain whose tag matches has that
/// hash. The one filing step of an index, row by row and in bulk alike.
#[inline]
fn prepend(
    heads: &mut Slots,
    links: &mut Vec<Link>,
    id: RowId,
    hash: u64,
    keyed: impl FnMut(RowId) -> bool,
) {
    debug_assert_eq!(id as usize, links.len());
    let next = match heads.find(hash, keyed) {
        Ok(slot) => {
            let head = heads.row(slot);
            heads.set_row(slot, id);
            links[head as usize].prev = id;
            head
        }
        Err(free) => {
            heads.insert(hash, id, free);
            NONE
        }
    };
    links.push(Link { next, prev: NONE });
}

/// A lower estimate of the number of distinct values among `hashes` (linear
/// counting): set one bit per hash in a bitmap of at least one bit per hash, and
/// read the count off the share of bits left clear. The estimate is taken three
/// standard errors low, so that it rarely exceeds the true count and sizing a table
/// for it rarely over-allocates; an estimate that falls short costs one doubling
/// while the table fills. A hash sets the bit of the home slot a head table of that
/// many slots would give it: by the raw top bits instead of [`spread`] ones, 8 190
/// consecutive integer keys would read as 1 008.
fn distinct_at_least(hashes: &[u64]) -> usize {
    let bits = hashes.len().next_power_of_two().max(64);
    let shift = 32 - bits.trailing_zeros();
    let mut bitmap = vec![0u64; bits / 64];
    for &hash in hashes {
        let bit = (spread(hash) >> shift) as usize;
        bitmap[bit / 64] |= 1 << (bit % 64);
    }
    let clear: u32 = bitmap.iter().map(|word| word.count_zeros()).sum();
    if clear == 0 {
        // Every bit set, one per hash: the hashes are all distinct.
        return hashes.len();
    }
    let bits = bits as f64;
    let estimate = bits * (bits / f64::from(clear)).ln();
    let load = estimate / bits;
    let error = (bits * (load.exp() - load - 1.0)).sqrt();
    (estimate - 3.0 * error).max(0.0) as usize
}

impl ColumnIndex {
    /// Prepend `id`, the relation's newest row, to the chain of its key hash.
    #[inline]
    fn insert(&mut self, id: RowId, flat: &[Const], arity: usize) {
        let columns = &self.columns;
        let key_hash = |row: RowId| hash_columns(row_of(flat, arity, row), columns);
        let hash = key_hash(id);
        prepend(&mut self.heads, &mut self.links, id, hash, |head| {
            key_hash(head) == hash
        });
    }

    /// Index the `len` rows of `flat`, into an index that holds none: hash every
    /// row's key once, size the head table once for the distinct hashes, then file
    /// the rows in row-id order as [`ColumnIndex::insert`] does, telling a chain's
    /// hash from the stored hashes instead of re-hashing its head row. Chains and
    /// table capacity come out as inserting the rows one by one makes them.
    fn fill(&mut self, flat: &[Const], arity: usize, len: usize) {
        debug_assert!(self.links.is_empty() && self.heads.used == 0);
        if len == 0 {
            return;
        }
        let hashes: Vec<u64> = (0..len as RowId)
            .map(|id| hash_columns(row_of(flat, arity, id), &self.columns))
            .collect();
        self.heads
            .resize(Slots::capacity_for(distinct_at_least(&hashes)));
        self.links.reserve_exact(len);
        for (id, &hash) in (0..).zip(&hashes) {
            prepend(&mut self.heads, &mut self.links, id, hash, |head| {
                hashes[head as usize] == hash
            });
        }
        // The estimate is low with high probability, and growth while filing then
        // follows the incremental sizes; should it have come out high, shrink.
        let fit = Slots::capacity_for(self.heads.used);
        if self.heads.slots.len() > fit {
            self.heads.resize(fit);
        }
    }

    /// Make the chain neighbours of `row` — or the head table, when `row` leads its
    /// chain — name `ahead` as their successor and `behind` as their predecessor
    /// instead of `row`: its own neighbours to unlink it, its new id to renumber it.
    fn splice(&mut self, row: RowId, ahead: RowId, behind: RowId, flat: &[Const], arity: usize) {
        let Link { next, prev } = self.links[row as usize];
        if prev != NONE {
            self.links[prev as usize].next = ahead;
        } else {
            let hash = hash_columns(row_of(flat, arity, row), &self.columns);
            let slot = self.heads.slot_of(hash, row);
            if ahead != NONE {
                self.heads.set_row(slot, ahead);
            } else {
                self.heads.remove(slot);
            }
        }
        if next != NONE {
            self.links[next as usize].prev = behind;
        }
    }
}

/// The candidate rows of one index probe: the chain of rows whose key columns share
/// the probed hash, in chain order (see [`Relation::probe_candidates`]).
#[derive(Clone, Debug)]
pub struct Candidates<'a> {
    links: &'a [Link],
    next: RowId,
}

impl Iterator for Candidates<'_> {
    type Item = RowId;

    #[inline]
    fn next(&mut self) -> Option<RowId> {
        if self.next == NONE {
            return None;
        }
        let id = self.next;
        self.next = self.links[id as usize].next;
        Some(id)
    }
}

/// THE index-key hashing scheme: element-wise over the key constants, in index column
/// order, no length prefix. Every producer and consumer of index key hashes (index
/// maintenance, probes, the join pipeline's inline probe hashing) must go through
/// this builder — a divergent copy would silently desynchronize probing from
/// maintenance and drop answers without a panic.
#[derive(Default)]
pub struct KeyHasher(FxHasher);

impl KeyHasher {
    /// Start hashing a key.
    pub fn new() -> KeyHasher {
        KeyHasher::default()
    }

    /// Feed the next key value (values must arrive in index column order).
    ///
    /// Integer constants — the overwhelmingly common case for the generated graph
    /// workloads — take a raw-u64 fast path: one hasher round for the payload instead
    /// of the derived `Hash` impl's discriminant + payload rounds. The scheme stays
    /// internally consistent because every producer and consumer goes through this
    /// builder; a raw-int hash colliding with a symbolic key's hash is harmless, since
    /// all probe candidates are collision-verified against the flat store.
    #[inline]
    pub fn push(&mut self, value: &Const) {
        match value {
            Const::Int(i) => self.0.write_u64(*i as u64),
            other => std::hash::Hash::hash(other, &mut self.0),
        }
    }

    /// The hash of the values fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Hash a sequence of key values with the canonical scheme (see [`KeyHasher`]).
#[inline]
pub fn hash_values<'a>(values: impl IntoIterator<Item = &'a Const>) -> u64 {
    let mut hasher = KeyHasher::new();
    for value in values {
        hasher.push(value);
    }
    hasher.finish()
}

/// Hash the values of `row` at `columns` (in the given column order).
#[inline]
fn hash_columns(row: &[Const], columns: &[usize]) -> u64 {
    hash_values(columns.iter().map(|&c| &row[c]))
}

/// Hash an already-projected key (values in index column order).
#[inline]
pub fn hash_key(key: &[Const]) -> u64 {
    hash_values(key)
}

impl Relation {
    /// Create an empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            ..Relation::default()
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuple with the given row id.
    #[inline]
    pub fn row(&self, id: RowId) -> &[Const] {
        row_of(&self.flat, self.arity, id)
    }

    /// Iterate over all tuples in row order (insertion order until the first removal).
    pub fn iter(&self) -> impl Iterator<Item = &[Const]> + '_ {
        (0..self.len as RowId).map(|id| self.row(id))
    }

    /// The dedup slot `tuple` is filed in (`Ok`), or the empty slot that ends its
    /// probe run.
    #[inline]
    fn slot_for(&self, tuple: &[Const]) -> Result<usize, usize> {
        self.dedup
            .find(hash_values(tuple), |id| self.row(id) == tuple)
    }

    /// Does the relation contain `tuple`?
    #[inline]
    pub fn contains(&self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.slot_for(tuple).is_ok()
    }

    /// Insert a tuple; returns `true` if it was new.
    pub fn insert(&mut self, tuple: &[Const]) -> bool {
        assert_eq!(
            tuple.len(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            tuple.len(),
            self.arity
        );
        let hash = hash_values(tuple);
        let Err(free) = self.dedup.find(hash, |id| self.row(id) == tuple) else {
            return false;
        };
        assert!(self.len < 1 << 31, "relation is full");
        let id = self.len as RowId;
        self.flat.extend_from_slice(tuple);
        self.len += 1;
        self.dedup.insert(hash, id, free);
        for index in &mut self.indexes {
            index.insert(id, &self.flat, self.arity);
        }
        true
    }

    /// Remove one tuple; returns `true` if it was present. The last row takes the
    /// removed row's place (see the module docs): the cost depends on the tuple's
    /// table entries, not on the size of the relation, and row ids taken before the
    /// call are invalid after it.
    pub fn remove(&mut self, tuple: &[Const]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        let found = self.slot_for(tuple);
        found.map(|slot| self.remove_row(slot)).is_ok()
    }

    /// Remove every tuple of `other` (same arity) that is present in `self`; returns
    /// the number of tuples removed. One [`Relation::remove`] per tuple of `other`.
    pub fn remove_all(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        other.iter().filter(|tuple| self.remove(tuple)).count()
    }

    /// THE removal primitive: unlink the row filed in dedup slot `slot` from every
    /// table, then renumber the last row to its id and move it into the hole, keeping
    /// the row store dense.
    fn remove_row(&mut self, slot: usize) {
        let (flat, arity) = (self.flat.as_slice(), self.arity);
        let id = self.dedup.row(slot);
        let last = (self.len - 1) as RowId;
        self.dedup.remove(slot);
        for index in &mut self.indexes {
            let Link { next, prev } = index.links[id as usize];
            index.splice(id, next, prev, flat, arity);
        }
        if id != last {
            let slot = self
                .dedup
                .slot_of(hash_values(row_of(flat, arity, last)), last);
            self.dedup.set_row(slot, id);
            for index in &mut self.indexes {
                index.splice(last, id, id, flat, arity);
                index.links[id as usize] = index.links[last as usize];
            }
            let (to, from) = (id as usize * arity, last as usize * arity);
            self.flat.copy_within(from..from + arity, to);
        }
        self.flat.truncate(last as usize * arity);
        self.len -= 1;
        for index in &mut self.indexes {
            index.links.pop();
        }
    }

    /// Insert every tuple of `other` (which must have the same arity); returns the
    /// number of tuples that were new.
    pub fn merge_from(&mut self, other: &Relation) -> usize {
        assert_eq!(self.arity, other.arity);
        other.iter().filter(|tuple| self.insert(tuple)).count()
    }

    /// Remove all tuples, keeping index definitions and table capacity, in time
    /// proportional to the rows held (a table far larger than them is emptied from
    /// the rows' hashes, not filled): the semi-naive rounds reuse one relation per
    /// predicate for every round.
    pub fn clear(&mut self) {
        let (flat, arity) = (self.flat.as_slice(), self.arity);
        let rows = || (0..self.len as RowId).map(|id| row_of(flat, arity, id));
        self.dedup.clear(rows().map(hash_values));
        for index in &mut self.indexes {
            let columns = &index.columns;
            index
                .heads
                .clear(rows().map(|row| hash_columns(row, columns)));
            index.links.clear();
        }
        self.flat.clear();
        self.len = 0;
    }

    /// Ensure a secondary index exists on the given column subset and return its
    /// stable handle. Columns must be valid positions; the set is deduplicated and
    /// sorted internally. Building the index is O(rows); subsequent inserts and
    /// removals maintain it. Returns `None` for empty or full-tuple column sets (full
    /// scans and the dedup table already cover those).
    pub fn ensure_index(&mut self, columns: &[usize]) -> Option<IndexId> {
        let mut cols: Vec<usize> = columns.to_vec();
        cols.sort_unstable();
        cols.dedup();
        if cols.is_empty() || cols.len() >= self.arity {
            return None;
        }
        assert!(
            cols.iter().all(|&c| c < self.arity),
            "index column out of range for arity {}",
            self.arity
        );
        if let Some(existing) = self.index_on(&cols) {
            return Some(existing);
        }
        let mut index = ColumnIndex {
            columns: cols,
            heads: Slots::default(),
            links: Vec::new(),
        };
        index.fill(&self.flat, self.arity, self.len);
        self.indexes.push(index);
        Some(IndexId(self.indexes.len() as u32 - 1))
    }

    /// The handle of the existing index on exactly `columns` (sorted, deduplicated),
    /// if one has been built.
    pub fn index_on(&self, columns: &[usize]) -> Option<IndexId> {
        self.indexes
            .iter()
            .position(|i| i.columns == columns)
            .map(|p| IndexId(p as u32))
    }

    /// The *candidate* row ids whose key columns hash to `key_hash` — the index's
    /// chain for that hash, without collision verification. The join pipeline verifies
    /// candidates in its binding loop; other callers should compare the rows' key
    /// columns against the probe key (or use [`Relation::probe`]).
    #[inline]
    pub fn probe_candidates(&self, index: IndexId, key_hash: u64) -> Candidates<'_> {
        let index = &self.indexes[index.0 as usize];
        let head = index.heads.find(key_hash, |head| {
            hash_columns(self.row(head), &index.columns) == key_hash
        });
        Candidates {
            links: &index.links,
            next: head.map_or(NONE, |slot| index.heads.row(slot)),
        }
    }

    /// The columns covered by `index` (sorted ascending).
    pub fn index_columns(&self, index: IndexId) -> &[usize] {
        &self.indexes[index.0 as usize].columns
    }

    /// The row ids whose values at `columns` (sorted, deduplicated) equal `key`,
    /// collision-verified against the flat store. Requires [`Relation::ensure_index`]
    /// to have been called for `columns`; returns `None` if no such index exists.
    pub fn probe(&self, columns: &[usize], key: &[Const]) -> Option<Vec<RowId>> {
        let index = self.index_on(columns)?;
        let matches = |&id: &RowId| columns.iter().zip(key).all(|(&c, k)| self.row(id)[c] == *k);
        Some(
            self.probe_candidates(index, hash_key(key))
                .filter(matches)
                .collect(),
        )
    }

    /// Select all rows matching a pattern of optional constants (one entry per column;
    /// `None` means "any value"). Uses an index if one covering exactly the bound
    /// columns exists, otherwise scans. Results are returned as row ids.
    pub fn select(&self, pattern: &[Option<Const>], out: &mut Vec<RowId>) {
        self.select_rows(pattern, true, out);
    }

    /// [`Relation::select`] without the secondary indexes: a partly bound pattern
    /// always scans, so the cost follows the relation's size and never the indexes
    /// earlier evaluations happened to build for their joins.
    pub fn select_scanning(&self, pattern: &[Option<Const>], out: &mut Vec<RowId>) {
        self.select_rows(pattern, false, out);
    }

    fn select_rows(&self, pattern: &[Option<Const>], use_index: bool, out: &mut Vec<RowId>) {
        debug_assert_eq!(pattern.len(), self.arity);
        out.clear();
        let bound: Vec<usize> = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_some().then_some(i))
            .collect();
        if bound.is_empty() {
            out.extend(0..self.len as RowId);
            return;
        }
        if bound.len() == self.arity {
            // Fully bound: membership test.
            let tuple: Vec<Const> = pattern.iter().map(|p| p.unwrap()).collect();
            out.extend(self.slot_for(&tuple).map(|slot| self.dedup.row(slot)));
            return;
        }
        let key: Vec<(usize, Const)> = (bound.iter())
            .map(|&c| (c, pattern[c].expect("a bound column holds a constant")))
            .collect();
        let matches = |row: &[Const]| key.iter().all(|&(c, k)| row[c] == k);
        if let Some(index) = self.index_on(&bound).filter(|_| use_index) {
            let key_hash = hash_values(key.iter().map(|(_, k)| k));
            let candidates = self.probe_candidates(index, key_hash);
            out.extend(candidates.filter(|&id| matches(self.row(id))));
            return;
        }
        // Scan the rows in place.
        let rows = self.flat[..self.len * self.arity].chunks_exact(self.arity);
        out.extend(
            (0..)
                .zip(rows)
                .filter(|(_, row)| matches(row))
                .map(|(id, _)| id),
        );
    }

    /// All tuples, cloned into owned vectors (test/diagnostic convenience).
    pub fn to_vec(&self) -> Vec<Vec<Const>> {
        self.iter().map(|r| r.to_vec()).collect()
    }

    /// Sorted tuple list (test convenience, for deterministic comparison).
    pub fn to_sorted_vec(&self) -> Vec<Vec<Const>> {
        let mut v = self.to_vec();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: i64) -> Const {
        Const::Int(i)
    }

    #[test]
    fn insert_and_dedup() {
        let mut r = Relation::new(2);
        assert!(r.insert(&[c(1), c(2)]));
        assert!(r.insert(&[c(2), c(3)]));
        assert!(!r.insert(&[c(1), c(2)]), "duplicate must be rejected");
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[c(1), c(2)]));
        assert!(!r.contains(&[c(3), c(1)]));
    }

    #[test]
    fn iteration_follows_insertion_order_until_a_removal() {
        let mut r = Relation::new(1);
        for i in 0..10 {
            r.insert(&[c(i)]);
        }
        let values: Vec<i64> = r.iter().map(|row| row[0].as_int().unwrap()).collect();
        assert_eq!(values, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn select_with_and_without_index() {
        let mut r = Relation::new(2);
        for i in 0..100i64 {
            r.insert(&[c(i % 10), c(i)]);
        }
        // Unindexed scan.
        let mut out = Vec::new();
        r.select(&[Some(c(3)), None], &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|&id| r.row(id)[0] == c(3)));

        // Indexed probe gives the same answer.
        r.ensure_index(&[0]);
        let mut out2 = Vec::new();
        r.select(&[Some(c(3)), None], &mut out2);
        let mut a = out.clone();
        let mut b = out2.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);

        // Probe API directly.
        let rows = r.probe(&[0], &[c(7)]).unwrap();
        assert_eq!(rows.len(), 10);
        assert!(r.probe(&[1], &[c(7)]).is_none(), "no index on column 1");
    }

    #[test]
    fn index_is_maintained_across_inserts() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(10)]);
        r.ensure_index(&[0]);
        r.insert(&[c(1), c(11)]);
        r.insert(&[c(2), c(20)]);
        assert_eq!(r.probe(&[0], &[c(1)]).unwrap().len(), 2);
        assert_eq!(r.probe(&[0], &[c(2)]).unwrap().len(), 1);
        assert_eq!(r.probe(&[0], &[c(9)]).unwrap().len(), 0);
    }

    #[test]
    fn index_ids_are_stable_handles() {
        let mut r = Relation::new(3);
        let id0 = r.ensure_index(&[0]).unwrap();
        let id1 = r.ensure_index(&[1, 2]).unwrap();
        assert_ne!(id0, id1);
        // Re-ensuring returns the same handle; column order is normalized.
        assert_eq!(r.ensure_index(&[2, 1]), Some(id1));
        assert_eq!(r.index_on(&[0]), Some(id0));
        assert_eq!(r.index_on(&[1, 2]), Some(id1));
        assert_eq!(r.index_on(&[1]), None);
        assert_eq!(r.index_columns(id1), &[1, 2]);
        // Handles survive inserts and clears.
        r.insert(&[c(1), c(2), c(3)]);
        r.clear();
        r.insert(&[c(4), c(5), c(6)]);
        assert_eq!(r.probe_candidates(id0, hash_key(&[c(4)])).count(), 1);
        // Trivial column sets are refused.
        assert_eq!(r.ensure_index(&[]), None);
        assert_eq!(r.ensure_index(&[0, 1, 2]), None);
    }

    #[test]
    fn probe_candidates_verification_matches_probe() {
        let mut r = Relation::new(2);
        for i in 0..50i64 {
            r.insert(&[c(i % 5), c(i)]);
        }
        let id = r.ensure_index(&[0]).unwrap();
        let verified = r.probe(&[0], &[c(2)]).unwrap();
        let candidates: Vec<RowId> = r
            .probe_candidates(id, hash_key(&[c(2)]))
            .filter(|&row| r.row(row)[0] == c(2))
            .collect();
        assert_eq!(verified, candidates);
        assert_eq!(verified.len(), 10);
    }

    #[test]
    fn fully_bound_select_is_membership() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        let mut out = Vec::new();
        r.select(&[Some(c(1)), Some(c(2))], &mut out);
        assert_eq!(out.len(), 1);
        r.select(&[Some(c(2)), Some(c(1))], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_pattern_selects_everything() {
        let mut r = Relation::new(3);
        r.insert(&[c(1), c(2), c(3)]);
        r.insert(&[c(4), c(5), c(6)]);
        let mut out = Vec::new();
        r.select(&[None, None, None], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn merge_from_counts_new_tuples() {
        let mut a = Relation::new(1);
        a.insert(&[c(1)]);
        a.insert(&[c(2)]);
        let mut b = Relation::new(1);
        b.insert(&[c(2)]);
        b.insert(&[c(3)]);
        assert_eq!(a.merge_from(&b), 1);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn a_cleared_relation_behaves_like_a_fresh_one() {
        // Grown far past `Slots::MIN_CAPACITY` (97 keys, 1 000 rows), then cleared
        // once full (the tables are filled) and once holding a few rows of few keys
        // (their entries are emptied run by run): each time the relation must answer
        // like a fresh one given the same insertions, dedup table and index chains
        // alike.
        let wide = |range: std::ops::Range<i64>| range.map(|i| [c(i % 97), c(i)]);
        let narrow = || (0..40).map(|i| [c(i % 3), c(i)]);
        let mut used = Relation::new(2);
        let key = used.ensure_index(&[0]).unwrap();
        for row in wide(0..1000) {
            used.insert(&row);
        }
        for dirty in [0..1000, 2000..2003] {
            for row in wide(dirty.clone()) {
                used.insert(&row);
            }
            used.clear();
            let mut fresh = Relation::new(2);
            assert_eq!(fresh.ensure_index(&[0]), Some(key));
            for row in wide(dirty.clone()).chain(narrow()) {
                assert!(!used.contains(&row), "{row:?} survived the clear");
            }
            for row in narrow().chain(narrow()) {
                assert_eq!(used.insert(&row), fresh.insert(&row), "{row:?}");
            }
            assert_eq!(used.len(), fresh.len());
            for row in wide(0..1000).chain(wide(2000..2003)).chain(narrow()) {
                assert_eq!(used.contains(&row), fresh.contains(&row), "{row:?}");
            }
            for k in 0..100 {
                let chain = |r: &Relation| -> Vec<RowId> {
                    r.probe_candidates(key, hash_key(&[c(k)])).collect()
                };
                assert_eq!(chain(&used), chain(&fresh), "chain of key {k}");
            }
        }
    }

    #[test]
    fn clear_preserves_index_definitions() {
        let mut r = Relation::new(2);
        r.insert(&[c(1), c(2)]);
        r.ensure_index(&[0]);
        r.clear();
        assert!(r.is_empty());
        r.insert(&[c(5), c(6)]);
        assert_eq!(r.probe(&[0], &[c(5)]).unwrap().len(), 1);
    }

    #[test]
    fn remove_keeps_rows_dense_and_indexes_probeable() {
        let mut r = Relation::new(2);
        for i in 0..20i64 {
            r.insert(&[c(i % 4), c(i)]);
        }
        let id = r.ensure_index(&[0]).unwrap();
        assert!(r.remove(&[c(1), c(5)]));
        assert!(!r.remove(&[c(1), c(5)]), "already removed");
        assert_eq!(r.len(), 19);
        assert!(!r.contains(&[c(1), c(5)]));
        // The last row took the hole: every survivor is still there, exactly once.
        assert_eq!(r.row(5), &[c(3), c(19)]);
        let mut seconds: Vec<i64> = r.iter().map(|row| row[1].as_int().unwrap()).collect();
        seconds.sort_unstable();
        assert_eq!(seconds, (0..20).filter(|&v| v != 5).collect::<Vec<_>>());
        // The old IndexId handle still probes correctly, for the key that lost a row
        // and for the key of the row that moved.
        assert_eq!(r.probe_candidates(id, hash_key(&[c(1)])).count(), 4);
        assert_eq!(r.probe(&[0], &[c(1)]).unwrap().len(), 4);
        let mut moved = r.probe(&[0], &[c(3)]).unwrap();
        moved.sort_unstable();
        assert_eq!(moved, vec![3, 5, 7, 11, 15]);
        // Re-inserting works and is indexed.
        assert!(r.insert(&[c(1), c(5)]));
        assert_eq!(r.probe(&[0], &[c(1)]).unwrap().len(), 5);
    }

    #[test]
    fn remove_all_removes_exactly_the_tuples_present() {
        let mut r = Relation::new(2);
        for i in 0..10i64 {
            r.insert(&[c(i), c(i + 1)]);
        }
        let mut gone = Relation::new(2);
        gone.insert(&[c(2), c(3)]);
        gone.insert(&[c(7), c(8)]);
        gone.insert(&[c(99), c(100)]); // absent: not counted
        assert_eq!(r.remove_all(&gone), 2);
        assert_eq!(r.len(), 8);
        assert!(!r.contains(&[c(2), c(3)]));
        assert!(!r.contains(&[c(7), c(8)]));
        assert_eq!(r.remove_all(&gone), 0);
    }

    #[test]
    fn removing_down_to_empty_and_refilling_keeps_every_table_consistent() {
        // Exercises head hand-over, head-slot release (backward shift) and growth.
        let mut r = Relation::new(2);
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        for round in 0..3 {
            for i in 0..200i64 {
                assert!(r.insert(&[c(i % 7), c(i)]), "round {round}");
            }
            for i in (0..200i64).rev().step_by(2).chain((0..200i64).step_by(2)) {
                assert!(r.remove(&[c(i % 7), c(i)]), "round {round}, tuple {i}");
                assert_eq!(r.probe(&[1], &[c(i)]).unwrap(), Vec::<RowId>::new());
            }
            assert!(r.is_empty());
            assert_eq!(r.probe(&[0], &[c(3)]).unwrap(), Vec::<RowId>::new());
        }
    }

    #[test]
    fn zero_arity_removal() {
        let mut r = Relation::new(0);
        r.insert(&[]);
        assert!(r.remove(&[]));
        assert!(r.is_empty());
        assert!(!r.remove(&[]));
        r.insert(&[]);
        let mut gone = Relation::new(0);
        gone.insert(&[]);
        assert_eq!(r.remove_all(&gone), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_arity_relation() {
        let mut r = Relation::new(0);
        assert!(r.is_empty());
        assert!(r.insert(&[]));
        assert!(!r.insert(&[]));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
    }

    #[test]
    fn to_sorted_vec_is_deterministic() {
        let mut r = Relation::new(2);
        r.insert(&[c(3), c(1)]);
        r.insert(&[c(1), c(2)]);
        assert_eq!(r.to_sorted_vec(), vec![vec![c(1), c(2)], vec![c(3), c(1)]]);
    }

    #[test]
    #[should_panic(expected = "does not match relation arity")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(&[c(1)]);
    }

    /// The chain of `key` on `index`, in probe order.
    fn chain(r: &Relation, index: IndexId, key: Const) -> Vec<RowId> {
        r.probe_candidates(index, hash_key(&[key])).collect()
    }

    #[test]
    fn keys_sharing_a_tag_keep_separate_chains_in_bulk_and_incremental_builds() {
        // Fx multiplies an integer by a fixed odd constant, so 7 plus a multiple of
        // its inverse hashes to 7's hash plus that multiple: here 12 345, below 2^32.
        let (a, b) = (c(7), c(3_335_922_889_307_032_092));
        let (ha, hb) = (hash_key(&[a]), hash_key(&[b]));
        assert_eq!(ha >> 32, hb >> 32, "the keys share a tag");
        assert_ne!(ha, hb, "the keys differ in their full hashes");
        let rows = || (0..20).map(|i| [if i % 3 == 0 { a } else { b }, c(i)]);
        let mut bulk = Relation::new(2);
        for row in rows() {
            bulk.insert(&row);
        }
        let bulk_index = bulk.ensure_index(&[0]).unwrap();
        let mut incremental = Relation::new(2);
        let incremental_index = incremental.ensure_index(&[0]).unwrap();
        for row in rows() {
            incremental.insert(&row);
        }
        for key in [a, b] {
            // Probed like a scan: exactly the key's rows, newest first.
            let mut scanned: Vec<RowId> = (0..20).filter(|&id| bulk.row(id)[0] == key).collect();
            scanned.reverse();
            assert_eq!(chain(&bulk, bulk_index, key), scanned, "bulk");
            assert_eq!(
                chain(&incremental, incremental_index, key),
                scanned,
                "incremental"
            );
        }
    }

    #[test]
    fn an_index_over_existing_rows_is_sized_as_inserting_them_grows_it() {
        // 10 000 rows over `keys` distinct keys, among them both sides of table
        // doublings: 32 and 33 keys, 8 190 (two short of 8 192) and 8 193.
        for keys in [1, 10, 32, 33, 4_095, 8_190, 8_193, 10_000] {
            let rows = || (0..10_000i64).map(move |i| [c(i % keys), c(i)]);
            let mut bulk = Relation::new(2);
            for row in rows() {
                bulk.insert(&row);
            }
            let bulk_index = bulk.ensure_index(&[0]).unwrap();
            let mut incremental = Relation::new(2);
            let incremental_index = incremental.ensure_index(&[0]).unwrap();
            for row in rows() {
                incremental.insert(&row);
            }
            let capacity = |r: &Relation| r.indexes[0].heads.slots.len();
            assert_eq!(capacity(&bulk), capacity(&incremental), "{keys} keys");
            assert_eq!(capacity(&bulk), Slots::capacity_for(keys as usize));
            for key in [0, keys / 2, keys - 1, keys] {
                assert_eq!(
                    chain(&bulk, bulk_index, c(key)),
                    chain(&incremental, incremental_index, c(key)),
                    "{keys} keys, chain of {key}"
                );
            }
        }
        // An empty relation's index allocates no table.
        let mut empty = Relation::new(2);
        empty.ensure_index(&[1]);
        assert_eq!(empty.indexes[0].heads.slots.capacity(), 0);
    }

    #[test]
    fn int_fast_path_agrees_with_builder_everywhere() {
        // The raw-u64 path is only sound if index maintenance and probing both go
        // through it: an indexed relation of integer keys must keep answering probes.
        let mut r = Relation::new(2);
        for i in 0..20i64 {
            r.insert(&[c(i % 4), c(i)]);
        }
        r.ensure_index(&[0]);
        for k in 0..4i64 {
            assert_eq!(r.probe(&[0], &[c(k)]).unwrap().len(), 5);
        }
        // hash_key and an incremental KeyHasher agree on integer keys.
        let mut h = KeyHasher::new();
        h.push(&c(7));
        h.push(&c(9));
        assert_eq!(h.finish(), hash_key(&[c(7), c(9)]));
        // Mixed symbolic/integer keys still probe correctly through the generic path.
        let mut m = Relation::new(2);
        m.insert(&[Const::sym("a"), c(1)]);
        m.insert(&[Const::sym("b"), c(2)]);
        m.ensure_index(&[0]);
        assert_eq!(m.probe(&[0], &[Const::sym("a")]).unwrap().len(), 1);
    }
}
