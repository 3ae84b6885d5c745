//! Reachable cross product of a set of DFSMs.
//!
//! Given machines `A = {A1, …, An}`, the reachable cross product `R(A)`
//! (written `⊤` or "top" in the paper) is the machine whose states are the
//! *reachable* tuples of component states, whose alphabet is the union of
//! the component alphabets, and whose transition function applies each event
//! component-wise, with machines ignoring events outside their own alphabet
//! (Section 2).
//!
//! Every input machine is less than or equal to `⊤` in the closed-partition
//! order, so knowing the state of `⊤` determines the state of every input
//! machine; the fusion algorithms in `fsm-fusion-core` operate on quotients
//! of `⊤`.
//!
//! ## Packed construction
//!
//! Building `⊤` is itself a hot path at scale (it dominates the pipeline
//! before Algorithm 2 even starts), so the BFS interns states through a
//! **packed mixed-radix `u64` key** — tuple `(s1, …, sn)` becomes
//! `Σ si · stride_i` with `stride_i = ∏_{j<i} |Sj|` — instead of hashing a
//! heap-allocated `Vec<StateId>` per visited edge:
//!
//! * when the *full* product `∏ |Si|` is small, the interner is a dense
//!   `u32` table indexed directly by the key (one array read per edge);
//! * otherwise it is a `HashMap<u64, u32>` — still allocation-free per
//!   lookup;
//! * only when `∏ |Si|` overflows `u64` does construction fall back to the
//!   original tuple-keyed map, preserved as
//!   [`ReachableProduct::new_reference`].
//!
//! Per-event successors are pre-resolved into flat per-machine tables of
//! *stride-multiplied* entries, so expanding one state is `|Σ| · n`
//! additions with no per-pop tuple clone.  States are interned in
//! frontier × event order, so state numbering is identical to the
//! reference build (`tests/product_properties.rs` pins the two against each
//! other).

use std::collections::{HashMap, VecDeque};

use crate::dfsm::Dfsm;
use crate::error::Result;
use crate::event::Alphabet;
use crate::state::{StateId, StateInfo};

/// Dense-interner crossover: full-product sizes up to this use the dense
/// direct-indexed interner (`4 bytes × limit` = 16 MiB at the cap); larger
/// products hash packed keys.
const DENSE_LIMIT: u64 = 1 << 22;

/// What a [`ReachableProduct::extend_factor`] construction reused from the
/// base product and what it had to re-derive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactorExtension {
    /// `mapping[t]` is the base-product state that new product state `t`
    /// projects onto when the appended factor's coordinate is dropped.
    /// Every base state appears (old event paths replay unchanged), so this
    /// is a surjection onto the base product's states.
    pub mapping: Vec<u32>,
    /// Product states expanded by the incremental BFS — the new product's
    /// size.  Each expansion costs two lookups (one stored base row, one
    /// new-machine step) instead of the cold build's per-component
    /// successor sum, and no base-machine step tables are rebuilt.
    pub reexpanded: usize,
}

/// The mixed-radix packing of component-state tuples into `u64` keys.
#[derive(Debug, Clone)]
struct Radix {
    /// `|Si|` per component.
    sizes: Vec<u64>,
    /// `strides[i] = ∏_{j<i} sizes[j]` (little-endian mixed radix).
    strides: Vec<u64>,
}

impl Radix {
    /// `None` when `∏ |Si|` overflows `u64` (construction then falls back
    /// to the tuple-keyed reference BFS).
    fn new(machines: &[Dfsm]) -> Option<(Radix, u64)> {
        let mut strides = Vec::with_capacity(machines.len());
        let mut sizes = Vec::with_capacity(machines.len());
        let mut acc: u64 = 1;
        for m in machines {
            strides.push(acc);
            let size = m.size() as u64;
            sizes.push(size);
            acc = acc.checked_mul(size)?;
        }
        Some((Radix { sizes, strides }, acc))
    }

    /// Packs a full tuple, or `None` when any component is out of range
    /// (out-of-range components must be rejected *before* packing — they
    /// could otherwise alias a valid key).
    fn pack(&self, tuple: &[StateId]) -> Option<u64> {
        if tuple.len() != self.sizes.len() {
            return None;
        }
        let mut key = 0u64;
        for (i, &s) in tuple.iter().enumerate() {
            if (s.index() as u64) >= self.sizes[i] {
                return None;
            }
            key += s.index() as u64 * self.strides[i];
        }
        Some(key)
    }

    /// Appends the decoded components of `key` to `out`.
    fn decode_into(&self, key: u64, out: &mut Vec<StateId>) {
        let mut rem = key;
        for &size in &self.sizes {
            out.push(StateId((rem % size) as usize));
            rem /= size;
        }
    }
}

/// The tuple → product-state index behind [`ReachableProduct::find_tuple`].
#[derive(Debug, Clone)]
enum TupleIndex {
    /// Dense direct-indexed table over the full product
    /// (`u32::MAX` = unreachable tuple).
    Dense { radix: Radix, table: Vec<u32> },
    /// Packed-key hash map for full products too large for a dense table.
    Packed {
        radix: Radix,
        map: HashMap<u64, u32>,
    },
    /// The seed construction's tuple-keyed map: the reference path, and the
    /// fallback when `∏ |Si|` overflows `u64`.
    Tuples(HashMap<Vec<StateId>, StateId>),
}

/// The packed-key interner of the packed build.
enum Interner {
    Dense(Vec<u32>),
    Map(HashMap<u64, u32>),
}

impl Interner {
    /// Interns `key`, appending its decoded tuple to `tuple_flat` on first
    /// sight, and returns the state's id.
    fn intern(
        &mut self,
        key: u64,
        num_states: &mut usize,
        radix: &Radix,
        tuple_flat: &mut Vec<StateId>,
    ) -> u32 {
        let slot = match self {
            Interner::Dense(table) => &mut table[key as usize],
            Interner::Map(map) => map.entry(key).or_insert(u32::MAX),
        };
        if *slot == u32::MAX {
            *slot = *num_states as u32;
            *num_states += 1;
            radix.decode_into(key, tuple_flat);
        }
        *slot
    }

    fn into_index(self, radix: Radix) -> TupleIndex {
        match self {
            Interner::Dense(table) => TupleIndex::Dense { radix, table },
            Interner::Map(map) => TupleIndex::Packed { radix, map },
        }
    }
}

/// Flat per-machine successor tables, pre-multiplied by each machine's
/// stride: expanding state `t` on event `e` is then
/// `Σ_i step[i][e · |Si| + si]` — pure additions, no per-edge multiply and
/// no tuple materialization.
fn step_tables(machines: &[Dfsm], alphabet: &Alphabet, radix: &Radix) -> Vec<Vec<u64>> {
    let k = alphabet.len();
    machines
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let size = m.size();
            let stride = radix.strides[i];
            let mut table = Vec::with_capacity(k * size);
            for ev in alphabet.events() {
                match m.alphabet().id_of(ev) {
                    Some(id) => {
                        for s in 0..size {
                            table.push(m.next(StateId(s), id).index() as u64 * stride);
                        }
                    }
                    // The machine ignores this event: stay in place.
                    None => {
                        for s in 0..size {
                            table.push(s as u64 * stride);
                        }
                    }
                }
            }
            table
        })
        .collect()
}

/// The reachable cross product `R(A)` of a set of machines, together with
/// the mapping from product states back to component states.
#[derive(Debug, Clone)]
pub struct ReachableProduct {
    top: Dfsm,
    components: Vec<Dfsm>,
    arity: usize,
    /// Component states of product state `t`:
    /// `tuple_flat[t * arity .. (t + 1) * arity]` (one flat allocation
    /// instead of a `Vec` per state).
    tuple_flat: Vec<StateId>,
    index: TupleIndex,
}

impl ReachableProduct {
    /// Builds the reachable cross product of the given machines.
    ///
    /// The product is constructed by breadth-first search from the tuple of
    /// initial states, so every product state is reachable by construction
    /// and the product state `0` is the initial state.  Uses the packed
    /// interner (see the module docs), or the tuple-keyed reference BFS
    /// when `∏ |Si|` overflows `u64`.
    pub fn new(machines: &[Dfsm]) -> Result<Self> {
        Self::with_name(machines, "top")
    }

    /// Like [`ReachableProduct::new`] but with an explicit machine name.
    pub fn with_name(machines: &[Dfsm], name: impl Into<String>) -> Result<Self> {
        assert!(
            !machines.is_empty(),
            "reachable cross product of zero machines is undefined"
        );
        match Radix::new(machines) {
            Some((radix, full)) => Self::build_packed(machines, name.into(), radix, full),
            // ∏ |Si| overflows u64: packed keys cannot represent the tuples.
            None => Self::build_reference(machines, name.into()),
        }
    }

    /// The seed tuple-keyed BFS construction, preserved as the reference
    /// implementation the packed build is pinned against
    /// (`tests/product_properties.rs`) and benchmarked next to
    /// (`product_build_scan_*` in `BENCH_fusion.json`).  Produces the
    /// identical product: same state numbering, names, transitions and
    /// tuples.
    pub fn new_reference(machines: &[Dfsm]) -> Result<Self> {
        assert!(
            !machines.is_empty(),
            "reachable cross product of zero machines is undefined"
        );
        Self::build_reference(machines, "top".into())
    }

    /// Extends this product by one more factor machine, appended *last*,
    /// reusing it as the base product instead of rebuilding from the component machines.
    ///
    /// The new product's transitions factorize: on every event of the old
    /// union alphabet the base coordinate follows the base product's
    /// *stored* transition row, and on events only the new machine knows
    /// the base coordinate stays put — so expanding one state costs two
    /// table lookups instead of the cold build's per-component successor
    /// sum, and the base machines' step tables are never rebuilt.  Because
    /// [`Alphabet::union_all`] preserves insertion order, the old union
    /// alphabet is a prefix of the new one, and the incremental BFS visits
    /// states in exactly the cold build's frontier × event discovery order:
    /// the result is **bit-identical** (state numbering, names, transitions,
    /// tuples, index variant) to building all `arity + 1` machines cold
    /// with [`ReachableProduct::with_name`] under this product's name.
    ///
    /// Returns the product together with a [`FactorExtension`] carrying the
    /// new-state → base-state projection used by `fsm-fusion-core`'s
    /// delta-aware fault-graph remapping.
    pub fn extend_factor(&self, machine: &Dfsm) -> Result<(ReachableProduct, FactorExtension)> {
        let machines: Vec<Dfsm> = self
            .components()
            .iter()
            .cloned()
            .chain(std::iter::once(machine.clone()))
            .collect();
        let name = self.top.name().to_string();
        let arity = machines.len();
        let alphabet = Alphabet::union_all(machines.iter().map(|m| m.alphabet()));
        let k = alphabet.len();
        let k_old = self.top().alphabet().len();
        debug_assert_eq!(
            self.top().alphabet().events(),
            &alphabet.events()[..k_old],
            "the old union alphabet must be a prefix of the new one"
        );
        // Per union event, the new machine's own event id (None = ignored).
        let resolved: Vec<Option<crate::event::EventId>> = alphabet
            .events()
            .iter()
            .map(|ev| machine.alphabet().id_of(ev))
            .collect();
        let s_new = machine.size() as u64;
        let n_base = self.size() as u64;

        // Intern (base state, new coordinate) pairs under the key
        // `x * |S_new| + c`; dense when the pair space is small.
        let pair_space = n_base * s_new;
        enum PairInterner {
            Dense(Vec<u32>),
            Map(HashMap<u64, u32>),
        }
        let mut interner = if pair_space <= DENSE_LIMIT {
            PairInterner::Dense(vec![u32::MAX; pair_space as usize])
        } else {
            PairInterner::Map(HashMap::new())
        };
        let mut mapping: Vec<u32> = Vec::new();
        let mut coords: Vec<u32> = Vec::new();
        let mut intern = |x: u32, c: u32, mapping: &mut Vec<u32>, coords: &mut Vec<u32>| -> u32 {
            let key = x as u64 * s_new + c as u64;
            let slot = match &mut interner {
                PairInterner::Dense(table) => &mut table[key as usize],
                PairInterner::Map(map) => map.entry(key).or_insert(u32::MAX),
            };
            if *slot == u32::MAX {
                *slot = mapping.len() as u32;
                mapping.push(x);
                coords.push(c);
            }
            *slot
        };

        // The base product's BFS put its initial state at id 0, so the new
        // initial pair is (0, new initial) — interned first, id 0.
        intern(
            0,
            machine.initial().index() as u32,
            &mut mapping,
            &mut coords,
        );

        // One-state-at-a-time BFS over the implicit FIFO (ids are assigned
        // in discovery order, so processing states in id order IS the
        // frontier × event order of the cold level-synchronized build).
        let base_table = self.top().transition_table();
        let mut transitions: Vec<Vec<StateId>> = Vec::new();
        let mut t = 0usize;
        while t < mapping.len() {
            let x = mapping[t];
            let c = coords[t];
            let base_row = &base_table[x as usize];
            let mut row = Vec::with_capacity(k);
            for (e, res) in resolved.iter().enumerate() {
                // Old-union events follow the stored base row; events the
                // base machines never knew leave the base coordinate put.
                let x2 = if e < k_old {
                    base_row[e].index() as u32
                } else {
                    x
                };
                let c2 = match res {
                    Some(id) => machine.next(StateId(c as usize), *id).index() as u32,
                    None => c,
                };
                row.push(StateId(intern(x2, c2, &mut mapping, &mut coords) as usize));
            }
            transitions.push(row);
            t += 1;
        }

        let num_states = mapping.len();
        let mut tuple_flat: Vec<StateId> = Vec::with_capacity(num_states * arity);
        for (&x, &c) in mapping.iter().zip(coords.iter()) {
            tuple_flat.extend_from_slice(self.tuple(StateId(x as usize)));
            tuple_flat.push(StateId(c as usize));
        }

        // The tuple index is built by the cold rules, so even the index
        // variant matches what a from-scratch build would have chosen.
        let index = match Radix::new(&machines) {
            Some((radix, full)) if full <= DENSE_LIMIT => {
                let mut table = vec![u32::MAX; full as usize];
                for (t, tuple) in tuple_flat.chunks(arity).enumerate() {
                    let key = radix.pack(tuple).expect("stored tuples are in range");
                    table[key as usize] = t as u32;
                }
                TupleIndex::Dense { radix, table }
            }
            Some((radix, _)) => {
                let map = tuple_flat
                    .chunks(arity)
                    .enumerate()
                    .map(|(t, tuple)| {
                        let key = radix.pack(tuple).expect("stored tuples are in range");
                        (key, t as u32)
                    })
                    .collect();
                TupleIndex::Packed { radix, map }
            }
            None => TupleIndex::Tuples(
                tuple_flat
                    .chunks(arity)
                    .enumerate()
                    .map(|(t, tuple)| (tuple.to_vec(), StateId(t)))
                    .collect(),
            ),
        };

        // State names splice the base product's (always "{a,…,e}" from a
        // prior finish) with the appended coordinate — bit-identical to the
        // cold join over every component, without re-walking the tuple.
        let states: Vec<StateInfo> = mapping
            .iter()
            .zip(coords.iter())
            .map(|(&x, &c)| {
                let base_name = self.top().state_name(StateId(x as usize));
                let coord = machine.state_name(StateId(c as usize));
                let mut n = String::with_capacity(base_name.len() + coord.len() + 1);
                n.push_str(&base_name[..base_name.len() - 1]);
                n.push(',');
                n.push_str(coord);
                n.push('}');
                StateInfo::named(n)
            })
            .collect();
        let product = ReachableProduct::finish_with_states(
            &machines,
            name,
            states,
            alphabet,
            arity,
            tuple_flat,
            transitions,
            index,
        )?;
        Ok((
            product,
            FactorExtension {
                mapping,
                reexpanded: num_states,
            },
        ))
    }

    /// Packed BFS: states are interned through mixed-radix `u64` keys
    /// (dense table or key hash map), successors come from flat
    /// stride-multiplied tables.
    fn build_packed(machines: &[Dfsm], name: String, radix: Radix, full: u64) -> Result<Self> {
        let arity = machines.len();
        let alphabet = Alphabet::union_all(machines.iter().map(|m| m.alphabet()));
        let k = alphabet.len();
        let step = step_tables(machines, &alphabet, &radix);

        let mut interner = if full <= DENSE_LIMIT {
            Interner::Dense(vec![u32::MAX; full as usize])
        } else {
            Interner::Map(HashMap::new())
        };

        // Number of states discovered so far; their components live in
        // `tuple_flat` (state `t` = `tuple_flat[t * arity..]`), so no
        // separate per-state key storage is needed.
        let mut num_states = 0usize;
        let mut tuple_flat: Vec<StateId> = Vec::new();
        // Interns `key`, appending its decoded tuple on first sight.
        let mut intern = |key: u64, num_states: &mut usize, tuple_flat: &mut Vec<StateId>| -> u32 {
            interner.intern(key, num_states, &radix, tuple_flat)
        };

        let initial_tuple: Vec<StateId> = machines.iter().map(|m| m.initial()).collect();
        let initial_key = radix
            .pack(&initial_tuple)
            .expect("initial states are in range");
        intern(initial_key, &mut num_states, &mut tuple_flat);

        let mut transitions: Vec<Vec<StateId>> = Vec::new();
        let mut next_keys: Vec<u64> = Vec::new();
        let mut level_start = 0usize;
        // Level-synchronized BFS: FIFO discovery order is preserved because
        // each level's successors are interned in frontier × event order —
        // exactly the order the one-state-at-a-time queue would produce.
        // An empty union alphabet (k == 0) means the sole reachable state
        // has no successors at all; the row loops below cannot iterate rows
        // of width zero, so emit the empty transition rows directly.
        if k == 0 {
            transitions = vec![Vec::new(); num_states];
            level_start = num_states;
        }
        while level_start < num_states {
            let level_end = num_states;
            let level_len = level_end - level_start;
            next_keys.clear();
            next_keys.resize(level_len * k, 0);

            for (t, row) in (level_start..level_end).zip(next_keys.chunks_mut(k)) {
                let comps = &tuple_flat[t * arity..(t + 1) * arity];
                for (e, slot) in row.iter_mut().enumerate() {
                    *slot = comps
                        .iter()
                        .zip(step.iter())
                        .zip(radix.sizes.iter())
                        .map(|((&s, table), &size)| table[e * size as usize + s.index()])
                        .sum();
                }
            }

            for row_keys in next_keys.chunks(k) {
                let row: Vec<StateId> = row_keys
                    .iter()
                    .map(|&key| StateId(intern(key, &mut num_states, &mut tuple_flat) as usize))
                    .collect();
                transitions.push(row);
            }
            level_start = level_end;
        }

        let index = interner.into_index(radix);
        Self::finish(
            machines,
            name,
            alphabet,
            arity,
            tuple_flat,
            transitions,
            index,
        )
    }

    /// The seed BFS over explicit tuples with a tuple-keyed hash map.
    fn build_reference(machines: &[Dfsm], name: String) -> Result<Self> {
        let arity = machines.len();
        let alphabet = Alphabet::union_all(machines.iter().map(|m| m.alphabet()));

        // Pre-resolve, for every union event, the per-machine event id (or
        // None when the machine ignores that event).
        let resolved: Vec<Vec<Option<crate::event::EventId>>> = alphabet
            .events()
            .iter()
            .map(|ev| machines.iter().map(|m| m.alphabet().id_of(ev)).collect())
            .collect();

        let initial_tuple: Vec<StateId> = machines.iter().map(|m| m.initial()).collect();
        let mut tuples: Vec<Vec<StateId>> = vec![initial_tuple.clone()];
        let mut index: HashMap<Vec<StateId>, StateId> = HashMap::new();
        index.insert(initial_tuple, StateId(0));
        let mut transitions: Vec<Vec<StateId>> = Vec::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        queue.push_back(0);

        while let Some(t) = queue.pop_front() {
            let mut row = Vec::with_capacity(alphabet.len());
            for per_machine in resolved.iter() {
                // `tuples[t]` is read in place; the immutable borrow ends
                // with the collect, before any push below.
                let next_tuple: Vec<StateId> = machines
                    .iter()
                    .zip(per_machine.iter())
                    .enumerate()
                    .map(|(i, (m, ev))| match ev {
                        Some(id) => m.next(tuples[t][i], *id),
                        None => tuples[t][i],
                    })
                    .collect();
                let next_id = match index.get(&next_tuple) {
                    Some(&id) => id,
                    None => {
                        let id = StateId(tuples.len());
                        index.insert(next_tuple.clone(), id);
                        tuples.push(next_tuple);
                        queue.push_back(id.index());
                        id
                    }
                };
                row.push(next_id);
            }
            // Rows are produced in BFS order, which is also id order because
            // ids are assigned in discovery order and the queue is FIFO.
            debug_assert_eq!(transitions.len(), t);
            transitions.push(row);
        }

        let tuple_flat: Vec<StateId> = tuples.into_iter().flatten().collect();
        Self::finish(
            machines,
            name,
            alphabet,
            arity,
            tuple_flat,
            transitions,
            TupleIndex::Tuples(index),
        )
    }

    /// Shared tail of every construction: state names and the `Dfsm`.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        machines: &[Dfsm],
        name: String,
        alphabet: Alphabet,
        arity: usize,
        tuple_flat: Vec<StateId>,
        transitions: Vec<Vec<StateId>>,
        index: TupleIndex,
    ) -> Result<Self> {
        let states: Vec<StateInfo> = tuple_flat
            .chunks(arity)
            .map(|tuple| {
                StateInfo::braced(tuple.iter().zip(machines).map(|(&s, m)| m.state_name(s)))
            })
            .collect();
        Self::finish_with_states(
            machines,
            name,
            states,
            alphabet,
            arity,
            tuple_flat,
            transitions,
            index,
        )
    }

    /// [`ReachableProduct::finish`] with the state names already
    /// materialized — the incremental `extend_factor` path derives them by
    /// splicing the base product's names instead of re-joining every
    /// component's.
    #[allow(clippy::too_many_arguments)]
    fn finish_with_states(
        machines: &[Dfsm],
        name: String,
        states: Vec<StateInfo>,
        alphabet: Alphabet,
        arity: usize,
        tuple_flat: Vec<StateId>,
        transitions: Vec<Vec<StateId>>,
        index: TupleIndex,
    ) -> Result<Self> {
        let top = Dfsm::from_parts(name, states, alphabet, transitions, StateId(0))?;
        Ok(ReachableProduct {
            top,
            components: machines.to_vec(),
            arity,
            tuple_flat,
            index,
        })
    }

    /// The product machine `⊤` itself.
    pub fn top(&self) -> &Dfsm {
        &self.top
    }

    /// The component machines, in the order they were given.
    pub fn components(&self) -> &[Dfsm] {
        &self.components
    }

    /// Number of product states (`|⊤|`).
    pub fn size(&self) -> usize {
        self.top.size()
    }

    /// Number of component machines.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The tuple of component states corresponding to a product state.
    pub fn tuple(&self, state: StateId) -> &[StateId] {
        &self.tuple_flat[state.index() * self.arity..(state.index() + 1) * self.arity]
    }

    /// The state of component `i` when the product is in `state`.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`ReachableProduct::arity`].
    pub fn component_state(&self, state: StateId, i: usize) -> StateId {
        assert!(
            i < self.arity,
            "component index {i} out of range for a product of arity {}",
            self.arity
        );
        self.tuple_flat[state.index() * self.arity + i]
    }

    /// Finds the product state for a full tuple of component states, if that
    /// combination is reachable.
    pub fn find_tuple(&self, tuple: &[StateId]) -> Option<StateId> {
        match &self.index {
            TupleIndex::Dense { radix, table } => {
                let key = radix.pack(tuple)?;
                match table[key as usize] {
                    u32::MAX => None,
                    id => Some(StateId(id as usize)),
                }
            }
            TupleIndex::Packed { radix, map } => {
                let key = radix.pack(tuple)?;
                map.get(&key).map(|&id| StateId(id as usize))
            }
            TupleIndex::Tuples(map) => map.get(tuple).copied(),
        }
    }

    /// The full (not necessarily reachable) state-space size `∏ |Ai|`.
    pub fn full_product_size(&self) -> u128 {
        self.components.iter().map(|m| m.size() as u128).product()
    }

    /// Groups product states by the state of component `i`: the result has
    /// one entry per component state, listing the product states that
    /// project onto it.  This is exactly the closed partition of `⊤`
    /// corresponding to machine `i` (used by `fsm-fusion-core`).
    pub fn projection_blocks(&self, i: usize) -> Vec<Vec<StateId>> {
        let mut blocks: Vec<Vec<StateId>> = vec![Vec::new(); self.components[i].size()];
        for (t, tuple) in self.tuple_flat.chunks(self.arity).enumerate() {
            blocks[tuple[i].index()].push(StateId(t));
        }
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsmBuilder;
    use crate::event::Event;

    /// Mod-k counter of occurrences of `event`.
    fn counter(name: &str, event: &str, k: usize) -> Dfsm {
        let mut b = DfsmBuilder::new(name);
        for i in 0..k {
            b.add_state(format!("{name}{i}"));
        }
        b.set_initial(format!("{name}0"));
        for i in 0..k {
            b.add_transition(
                format!("{name}{i}"),
                event,
                format!("{name}{}", (i + 1) % k),
            );
        }
        b.build().unwrap()
    }

    /// `count` lockstep counters of `k` states over the shared event
    /// `tick`: only `k` states are reachable, whatever `k^count` is.
    fn lockstep(count: usize, k: usize) -> Vec<Dfsm> {
        (0..count)
            .map(|i| counter(&format!("m{i}"), "tick", k))
            .collect()
    }

    /// Asserts that two constructions of the same product are identical in
    /// every observable way.
    fn assert_same_product(a: &ReachableProduct, b: &ReachableProduct) {
        assert_eq!(a.size(), b.size());
        assert_eq!(a.arity(), b.arity());
        assert_eq!(a.top().alphabet().events(), b.top().alphabet().events());
        for t in 0..a.size() {
            let t = StateId(t);
            assert_eq!(a.tuple(t), b.tuple(t));
            assert_eq!(a.top().state_name(t), b.top().state_name(t));
            for e in 0..a.top().alphabet().len() {
                assert_eq!(
                    a.top().next(t, crate::event::EventId(e)),
                    b.top().next(t, crate::event::EventId(e))
                );
            }
        }
        for i in 0..a.arity() {
            assert_eq!(a.projection_blocks(i), b.projection_blocks(i));
        }
    }

    #[test]
    fn product_of_independent_counters_is_full_product() {
        // Counters over *different* events: all 9 combinations reachable.
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 3);
        let p = ReachableProduct::new(&[a, b]).unwrap();
        assert_eq!(p.size(), 9);
        assert_eq!(p.full_product_size(), 9);
        assert_eq!(p.arity(), 2);
        assert!(p.top().all_reachable());
    }

    #[test]
    fn product_of_lockstep_machines_is_small() {
        // Two counters over the *same* event move in lock step: only 3 of
        // the 9 tuples are reachable.
        let a = counter("a", "tick", 3);
        let b = counter("b", "tick", 3);
        let p = ReachableProduct::new(&[a, b]).unwrap();
        assert_eq!(p.size(), 3);
        assert_eq!(p.full_product_size(), 9);
    }

    #[test]
    fn product_transitions_match_componentwise_application() {
        let a = counter("a", "0", 3);
        let b = counter("b", "1", 2);
        let p = ReachableProduct::new(&[a.clone(), b.clone()]).unwrap();
        let e0 = Event::new("0");
        let e1 = Event::new("1");
        // Apply 0,1,0 on the product and on the components separately.
        let seq = [e0.clone(), e1.clone(), e0.clone()];
        let top_state = p.top().run(seq.iter());
        let a_state = a.run(seq.iter());
        let b_state = b.run(seq.iter());
        assert_eq!(p.component_state(top_state, 0), a_state);
        assert_eq!(p.component_state(top_state, 1), b_state);
    }

    #[test]
    fn find_tuple_and_projection_blocks() {
        let a = counter("a", "0", 2);
        let b = counter("b", "1", 2);
        let p = ReachableProduct::new(&[a, b]).unwrap();
        assert_eq!(p.size(), 4);
        let t = p.find_tuple(&[StateId(1), StateId(1)]).unwrap();
        assert_eq!(p.tuple(t), &[StateId(1), StateId(1)]);
        assert_eq!(p.find_tuple(&[StateId(5), StateId(0)]), None);
        let blocks = p.projection_blocks(0);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.iter().map(|b| b.len()).sum::<usize>(), 4);
        // Each block has exactly the product states whose first component
        // matches.
        for (a_state, block) in blocks.iter().enumerate() {
            for &t in block {
                assert_eq!(p.component_state(t, 0), StateId(a_state));
            }
        }
    }

    #[test]
    fn product_state_names_mention_components() {
        let a = counter("a", "0", 2);
        let b = counter("b", "1", 2);
        let p = ReachableProduct::new(&[a, b]).unwrap();
        assert_eq!(p.top().state_name(StateId(0)), "{a0,b0}");
    }

    #[test]
    fn single_machine_product_is_isomorphic_copy() {
        let a = counter("a", "0", 4);
        let p = ReachableProduct::new(std::slice::from_ref(&a)).unwrap();
        assert_eq!(p.size(), a.size());
        assert_eq!(p.top().alphabet().len(), 1);
    }

    #[test]
    fn packed_and_reference_builds_agree() {
        let machines = [
            counter("a", "0", 3),
            counter("b", "1", 4),
            counter("c", "0", 2),
        ];
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        let packed = ReachableProduct::new(&machines).unwrap();
        assert!(matches!(packed.index, TupleIndex::Dense { .. }));
        assert!(matches!(reference.index, TupleIndex::Tuples(_)));
        assert_same_product(&reference, &packed);
        // Dense-table find_tuple agrees with the reference map, reachable
        // and unreachable tuples alike.
        for s0 in 0..3 {
            for s1 in 0..4 {
                for s2 in 0..2 {
                    let tuple = [StateId(s0), StateId(s1), StateId(s2)];
                    assert_eq!(packed.find_tuple(&tuple), reference.find_tuple(&tuple));
                }
            }
        }
    }

    #[test]
    fn large_full_product_uses_the_packed_hash_map() {
        // 12 lockstep machines of 6 states: full product 6^12 ≈ 2.2e9 is
        // far past the dense-table limit, but only 6 states are reachable.
        let machines = lockstep(12, 6);
        let p = ReachableProduct::new(&machines).unwrap();
        assert!(matches!(p.index, TupleIndex::Packed { .. }));
        assert_eq!(p.size(), 6);
        let reference = ReachableProduct::new_reference(&machines).unwrap();
        assert_same_product(&reference, &p);
        assert_eq!(
            p.find_tuple(&[StateId(2); 12]),
            reference.find_tuple(&[StateId(2); 12])
        );
        assert_eq!(p.find_tuple(&[StateId(6); 12]), None);
    }

    #[test]
    fn empty_alphabet_product_matches_reference() {
        // A machine with no events is legal (one state, no transitions);
        // the packed BFS must produce the same 1-state, 0-event product as
        // the reference build instead of choking on zero-width rows.
        let mut b = DfsmBuilder::new("still");
        b.add_state("only");
        b.set_initial("only");
        let m = b.build().unwrap();
        let packed = ReachableProduct::new(std::slice::from_ref(&m)).unwrap();
        let reference = ReachableProduct::new_reference(std::slice::from_ref(&m)).unwrap();
        assert_same_product(&packed, &reference);
        assert_eq!(packed.size(), 1);
        assert_eq!(packed.top().alphabet().len(), 0);
        assert_eq!(packed.find_tuple(&[StateId(0)]), Some(StateId(0)));
    }

    /// Cold twin of an [`ReachableProduct::extend_factor`] call: all
    /// machines built from scratch.
    fn cold_extended(base: &ReachableProduct, machine: &Dfsm) -> ReachableProduct {
        let machines: Vec<Dfsm> = base
            .components()
            .iter()
            .cloned()
            .chain(std::iter::once(machine.clone()))
            .collect();
        ReachableProduct::new(&machines).unwrap()
    }

    #[test]
    fn extend_factor_matches_cold_build_for_disjoint_events() {
        // A third counter over a brand-new event: the pair BFS must produce
        // the 24-state product with the cold build's exact numbering.
        let base = ReachableProduct::new(&[counter("a", "0", 3), counter("b", "1", 4)]).unwrap();
        let c = counter("c", "2", 2);
        let (ext, stats) = base.extend_factor(&c).unwrap();
        let cold = cold_extended(&base, &c);
        assert_same_product(&ext, &cold);
        assert_eq!(stats.reexpanded, ext.size());
        assert_eq!(stats.mapping.len(), ext.size());
        // The mapping really is the drop-last-coordinate projection.
        for t in 0..ext.size() {
            let tuple = ext.tuple(StateId(t));
            let x = StateId(stats.mapping[t] as usize);
            assert_eq!(&tuple[..base.arity()], base.tuple(x));
        }
        // And it is surjective onto the base product.
        let mut hit = vec![false; base.size()];
        for &x in &stats.mapping {
            hit[x as usize] = true;
        }
        assert!(hit.iter().all(|&h| h), "every base state must reappear");
    }

    #[test]
    fn extend_factor_matches_cold_build_for_shared_and_novel_events() {
        // The appended machine shares event "0" with the base AND brings a
        // novel event "2" — both the prefix-alphabet path and the
        // stay-in-place path are exercised.
        let base = ReachableProduct::new(&[counter("a", "0", 3), counter("b", "1", 2)]).unwrap();
        let mut b = DfsmBuilder::new("c");
        for i in 0..3 {
            b.add_state(format!("c{i}"));
        }
        b.set_initial("c0");
        for i in 0..3 {
            b.add_transition(format!("c{i}"), "0", format!("c{}", (i + 1) % 3));
            b.add_transition(format!("c{i}"), "2", format!("c{}", (i + 2) % 3));
        }
        b.complete_missing_with_self_loops();
        let c = b.build().unwrap();
        let (ext, stats) = base.extend_factor(&c).unwrap();
        let cold = cold_extended(&base, &c);
        assert_same_product(&ext, &cold);
        assert_eq!(stats.reexpanded, ext.size());
        // Lockstep with "a" on event "0" keeps the product smaller than the
        // full 18-state space; the incremental build must agree on that too.
        assert_eq!(ext.size(), cold.size());
        for s0 in 0..3 {
            for s1 in 0..2 {
                for s2 in 0..3 {
                    let tuple = [StateId(s0), StateId(s1), StateId(s2)];
                    assert_eq!(ext.find_tuple(&tuple), cold.find_tuple(&tuple));
                }
            }
        }
    }

    #[test]
    fn extend_factor_chains_match_one_cold_build() {
        // Two successive extensions ≡ one cold build of all four machines.
        let base = ReachableProduct::new(std::slice::from_ref(&counter("a", "0", 2))).unwrap();
        let (p2, _) = base.extend_factor(&counter("b", "1", 3)).unwrap();
        let (p3, _) = p2.extend_factor(&counter("c", "0", 2)).unwrap();
        let cold = ReachableProduct::new(&[
            counter("a", "0", 2),
            counter("b", "1", 3),
            counter("c", "0", 2),
        ])
        .unwrap();
        assert_same_product(&p3, &cold);
    }

    #[test]
    fn extend_factor_builds_the_cold_index_variant() {
        let base = ReachableProduct::new(&[counter("a", "0", 3), counter("b", "1", 4)]).unwrap();
        let c = counter("c", "2", 2);
        // 24 full states: dense both ways.
        let (dense, _) = base.extend_factor(&c).unwrap();
        assert!(matches!(dense.index, TupleIndex::Dense { .. }));
        assert_same_product(&dense, &cold_extended(&base, &c));
        // 6^13 full states are past the dense limit: the extension hashes
        // packed keys, like the cold build.
        let base = ReachableProduct::new(&lockstep(12, 6)).unwrap();
        let m = counter("m12", "tick", 6);
        let (mapped, _) = base.extend_factor(&m).unwrap();
        let cold = cold_extended(&base, &m);
        assert!(matches!(mapped.index, TupleIndex::Packed { .. }));
        assert!(matches!(cold.index, TupleIndex::Packed { .. }));
        assert_same_product(&mapped, &cold);
        assert_eq!(mapped.find_tuple(&[StateId(4); 13]), Some(StateId(4)));
        // 41^14 overflows u64: the tuple fallback, like the cold build.
        let base = ReachableProduct::new(&lockstep(13, 41)).unwrap();
        let m = counter("m13", "tick", 41);
        let (tuples, _) = base.extend_factor(&m).unwrap();
        let cold = cold_extended(&base, &m);
        assert!(matches!(tuples.index, TupleIndex::Tuples(_)));
        assert!(matches!(cold.index, TupleIndex::Tuples(_)));
        assert_same_product(&tuples, &cold);
        assert_eq!(tuples.find_tuple(&[StateId(40); 14]), Some(StateId(40)));
        // The extension keeps the base product's name.
        let named = ReachableProduct::with_name(&[counter("a", "0", 3)], "R").unwrap();
        let (named, _) = named.extend_factor(&c).unwrap();
        assert_eq!(named.top().name(), "R");
    }

    #[test]
    fn u64_overflow_falls_back_to_the_tuple_map() {
        // 13 lockstep machines of 41 states: 41^13 ≈ 9e20 overflows u64, so
        // the packed constructors must take the reference path.
        let machines = lockstep(13, 41);
        let p = ReachableProduct::new(&machines).unwrap();
        assert!(matches!(p.index, TupleIndex::Tuples(_)));
        assert_eq!(p.size(), 41);
        assert_same_product(&p, &ReachableProduct::new_reference(&machines).unwrap());
        assert_eq!(p.find_tuple(&[StateId(40); 13]), Some(StateId(40)),);
        assert_eq!(p.find_tuple(&[StateId(41); 13]), None);
    }

    #[test]
    #[should_panic(expected = "component index 2 out of range for a product of arity 2")]
    fn component_state_rejects_an_out_of_range_component() {
        let p = ReachableProduct::new(&[counter("a", "0", 2), counter("b", "1", 2)]).unwrap();
        // Must panic, not read component 0 of the next state.
        p.component_state(StateId(0), 2);
    }
}
