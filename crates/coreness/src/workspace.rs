//! [`PeelWorkspace`]: reusable scratch buffers making steady-state peeling
//! allocation-free.
//!
//! Every DCCS algorithm calls the `dCC` peeling procedure once per visited
//! layer subset — up to `C(l, s)` times per run. The original implementation
//! allocated `|L|·n` degree counters, a removal queue, and a queued-flag
//! vector on every call, which dominated the runtime on small and medium
//! graphs. A `PeelWorkspace` owns those buffers and grows them monotonically;
//! after the first call at a given `(n, |L|)` shape, peeling performs no heap
//! allocation at all.
//!
//! The peeling primitives:
//!
//! * [`PeelWorkspace::peel_in_place`] — the multi-layer `dCC` cascade
//!   (Appendix B): shrinks a candidate [`VertexSet`] to the maximal subset
//!   whose members have degree ≥ `d` inside it on every layer of `L`.
//! * [`PeelWorkspace::peel_dense_in_place`] — the same peel over the
//!   word-level rows of a [`DenseSubgraph`].
//! * [`PeelWorkspace::peel_layer_in_place`] — the single-layer d-core
//!   threshold peel used by preprocessing.
//! * [`PeelWorkspace::core_numbers_into`] — the Batagelj–Zaversnik bin-sort
//!   core decomposition writing into a caller-provided output slice.
//! * [`PeelWorkspace::shrink_d_core`] — removes vertices from a layer's
//!   d-core and cascades over caller-kept degree counters, so a chain of
//!   removals costs the leavers' edges, not a re-peel.
//!
//! Free functions that keep the historical allocating signatures
//! ([`crate::d_coherent_core`], [`crate::core_numbers_within`], …) borrow a
//! thread-local workspace through [`with_thread_workspace`], so every caller
//! benefits without signature churn; the search algorithms additionally own
//! explicit workspaces (one per worker thread under the parallel fan-out).

use mlgraph::{Csr, DenseSubgraph, Layer, MultiLayerGraph, Vertex, VertexSet};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation probe checked at **cascade-frontier**
/// granularity inside the peeling loops.
///
/// A probe is the lowest level of the engine's query-limit machinery: the
/// search layer arms one per query (carrying the query's wall-clock
/// deadline and an externally settable flag) and installs it on every
/// worker's [`PeelWorkspace`] via [`PeelWorkspace::set_probe`]. The cascade
/// loops poll it once per removal frontier (never inside the word loops),
/// and a tripped probe makes the cascade return early — leaving the alive
/// set a **superset** of the true core, which the caller must treat as
/// incomplete. A workspace with no probe installed (the default) pays one
/// predictable branch per frontier.
#[derive(Debug, Default)]
pub struct CancelProbe {
    /// Set externally ([`CancelProbe::cancel`]) or latched when the
    /// deadline is first observed as passed.
    flag: AtomicBool,
    /// Wall-clock deadline; `None` means the probe only trips on
    /// [`CancelProbe::cancel`].
    deadline: Option<Instant>,
    /// Test hook ([`CancelProbe::trip_after_polls`]): when non-zero, the
    /// countdown of `is_hit` polls left before the probe trips on its own.
    poll_trip: AtomicU32,
}

impl CancelProbe {
    /// A probe that only trips when [`CancelProbe::cancel`] is called.
    pub fn new() -> Self {
        CancelProbe::default()
    }

    /// A probe that additionally trips once `deadline` has passed.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelProbe {
            flag: AtomicBool::new(false),
            deadline: Some(deadline),
            poll_trip: AtomicU32::new(0),
        }
    }

    /// Test hook: makes the probe trip on its own on the `n`-th subsequent
    /// [`CancelProbe::is_hit`] poll (`n ≥ 1`), deterministically reproducing
    /// a deadline that passes **mid-cascade** — between two cooperative
    /// checkpoints — without touching the clock. Single-writer use only
    /// (arm once, then poll); `n == 0` disarms.
    pub fn trip_after_polls(&self, n: u32) {
        self.poll_trip.store(n, Ordering::Relaxed);
    }

    /// Trips the probe; every subsequent [`CancelProbe::is_hit`] returns
    /// `true`.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the flag was explicitly set (does not consult the clock).
    pub fn cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The probe's deadline, when it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the probe has tripped — by [`CancelProbe::cancel`] or by the
    /// deadline passing (latched into the flag so later polls skip the
    /// clock read).
    pub fn is_hit(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.flag.store(true, Ordering::Relaxed);
                return true;
            }
        }
        let armed = self.poll_trip.load(Ordering::Relaxed);
        if armed > 0 {
            if armed == 1 {
                self.flag.store(true, Ordering::Relaxed);
                return true;
            }
            self.poll_trip.store(armed - 1, Ordering::Relaxed);
        }
        false
    }
}

/// Reusable scratch buffers for single- and multi-layer peeling.
///
/// Buffers grow monotonically and are never shrunk, so a workspace reused
/// across calls of the same shape performs no allocation. A workspace is
/// cheap to create (`new` allocates nothing) and is intentionally `!Sync`:
/// parallel callers create one workspace per worker thread.
#[derive(Debug, Default)]
pub struct PeelWorkspace {
    /// Flat `|L|·n` per-layer degree counters (`degrees[j*n + v]`).
    degrees: Vec<u32>,
    /// Removal queue of the cascade.
    queue: Vec<Vertex>,
    /// Epoch-stamped queued marks (`queued[v] == epoch` ⇔ v was enqueued
    /// this cascade; in a d-core repair, ⇔ v's degree is known); bumping
    /// the epoch resets all marks in O(1), so a cascade touches no
    /// per-vertex state outside the candidate set.
    queued: Vec<u32>,
    /// Current queued-mark epoch.
    epoch: u32,
    /// Bin-sort scratch: per-vertex current degree.
    bin_degree: Vec<u32>,
    /// Bin-sort scratch: bin start offsets.
    bins: Vec<usize>,
    /// Bin-sort scratch: running cursor per bin.
    starts: Vec<usize>,
    /// Bin-sort scratch: position of each vertex in `order`.
    positions: Vec<usize>,
    /// Bin-sort scratch: vertices sorted by current degree.
    order: Vec<Vertex>,
    /// Bin-sort scratch: removal marks.
    removed: Vec<bool>,
    /// Word-batched dense cascade scratch: the current frontier's victims
    /// as an `⌈m/64⌉`-word removal mask.
    removal_words: Vec<u64>,
    /// Word-batched dense cascade scratch: indices of the non-zero words of
    /// `removal_words`.
    removal_nz: Vec<u32>,
    /// Cooperative cancellation probe polled once per cascade frontier;
    /// `None` (the default) keeps the cascades check-free apart from one
    /// branch per frontier.
    probe: Option<Arc<CancelProbe>>,
}

/// Cost-model factor of the dense cascade's frontier batching: a whole
/// frontier of removals is applied as word masks against every surviving
/// row (cost `|alive| · nz` word ops per layer) when that undercuts the
/// per-victim walk (`batch · W` row-scan words per layer, plus one scalar
/// decrement per surviving edge — approximated by counting each scanned
/// word twice). Pure function of the four counts, so the chosen path —
/// and therefore the cascade, which is confluent either way — never
/// depends on scheduling.
const CASCADE_BATCH_CROSSOVER: usize = 2;

impl PeelWorkspace {
    /// An empty workspace; buffers are grown on first use.
    pub fn new() -> Self {
        PeelWorkspace::default()
    }

    /// A workspace pre-sized for graphs with `n` vertices and peels over up
    /// to `layers` layers, so even the first call allocates nothing.
    pub fn with_capacity(n: usize, layers: usize) -> Self {
        let mut ws = PeelWorkspace::default();
        ws.reserve_multi(n, layers.max(1));
        ws
    }

    /// Installs (or removes, with `None`) the cancellation probe polled by
    /// the cascade loops. Callers installing a probe for one job must clear
    /// it afterwards — a stale probe would cancel unrelated later peels on
    /// the same workspace.
    ///
    /// When a probe trips mid-cascade the peel returns early and the alive
    /// set is a **superset** of the true core; the caller is responsible
    /// for treating such a result as incomplete (the search layer checks
    /// its query monitor right after every peel).
    pub fn set_probe(&mut self, probe: Option<Arc<CancelProbe>>) {
        self.probe = probe;
    }

    fn reserve_multi(&mut self, n: usize, layers: usize) {
        if self.degrees.len() < layers * n {
            self.degrees.resize(layers * n, 0);
        }
        self.reserve_queue(n);
    }

    /// Sizes the cascade queue and its queued marks for `n` vertices — all
    /// a cascade over caller-owned degree arrays borrows.
    fn reserve_queue(&mut self, n: usize) {
        if self.queued.len() < n {
            self.queued.resize(n, 0);
        }
        // reserve() takes the *additional* capacity on top of len (0 here),
        // so this guarantees capacity ≥ n — no reallocation mid-cascade.
        self.queue.reserve(n.saturating_sub(self.queue.len()));
    }

    /// Starts a fresh cascade epoch; returns the mark value for this run.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.queued.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Multi-layer `dCC` peel (Appendix B), in place and allocation-free in
    /// steady state.
    ///
    /// On return, `alive` is `C_L^d(G[alive])`: the maximal subset of the
    /// input set whose members have at least `d` neighbors inside it on
    /// every layer of `layers`.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, contains an out-of-range index, or
    /// `alive` is not over the graph's vertex universe.
    pub fn peel_in_place(
        &mut self,
        g: &MultiLayerGraph,
        layers: &[Layer],
        d: u32,
        alive: &mut VertexSet,
    ) {
        assert!(!layers.is_empty(), "d_coherent_core requires a non-empty layer set");
        for &i in layers {
            assert!(i < g.num_layers(), "layer {i} out of range ({} layers)", g.num_layers());
        }
        let n = g.num_vertices();
        assert_eq!(alive.capacity(), n, "candidate set must cover the vertex universe");
        if d == 0 || alive.is_empty() {
            return;
        }
        self.reserve_multi(n, layers.len());
        let epoch = self.next_epoch();
        let degrees = &mut self.degrees[..layers.len() * n];

        // degrees[j*n + v] = degree of v on layers[j] restricted to `alive`.
        for (j, &i) in layers.iter().enumerate() {
            let csr = g.layer(i);
            let deg = &mut degrees[j * n..(j + 1) * n];
            for v in alive.iter() {
                deg[v as usize] = csr.degree_within(v, alive) as u32;
            }
        }

        run_cascade(
            g,
            layers,
            d,
            alive,
            degrees,
            &mut self.queue,
            &mut self.queued[..n],
            epoch,
            self.probe.as_deref(),
        );
    }

    /// [`PeelWorkspace::peel_in_place`] over a [`DenseSubgraph`]: `alive`
    /// lives in the re-indexed universe `0..m`, every member's degree on
    /// each layer of `layers` is counted as `popcount(row ∧ alive)` through
    /// the dispatched bit kernel into the workspace's own degree arrays, and
    /// [`PeelWorkspace::cascade_dense`] peels from there. On return `alive`
    /// is the compression of what `peel_in_place` leaves of its expansion.
    ///
    /// `layers` are original layer indices into the dense subgraph's layer
    /// axis.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or `alive` is not over the dense
    /// universe.
    pub fn peel_dense_in_place(
        &mut self,
        dense: &DenseSubgraph,
        layers: &[Layer],
        d: u32,
        alive: &mut VertexSet,
    ) {
        assert!(!layers.is_empty(), "peel_dense_in_place requires a non-empty layer set");
        let m = dense.len();
        assert_eq!(alive.capacity(), m, "alive set must be over the dense universe");
        if d == 0 || alive.is_empty() {
            return;
        }
        self.reserve_multi(m, layers.len());
        let kernel = mlgraph::kernels::kernel();
        // Taken out of the workspace for the cascade's split borrow, and
        // put back below; nothing is allocated either way.
        let mut degrees = std::mem::take(&mut self.degrees);
        for (j, &layer) in layers.iter().enumerate() {
            let deg = &mut degrees[j * m..(j + 1) * m];
            for v in alive.iter() {
                deg[v as usize] = kernel.and_count(alive.words(), dense.row(layer, v)) as u32;
            }
        }
        self.cascade_dense(dense, layers, d, alive, &mut degrees);
        self.degrees = degrees;
    }

    /// Runs only the cascading removal phase of the multi-layer peel, over
    /// caller-owned degree arrays laid out as `degrees[j*n + v]`.
    ///
    /// `degrees` must hold, for every member of `alive`, its exact degree
    /// inside `alive` on each layer of `layers`; on return the arrays are
    /// updated to the peeled set, so callers chaining peels down the subset
    /// lattice can reuse them incrementally instead of rescanning every
    /// layer. Only the queue and queued-flag scratch is borrowed from the
    /// workspace.
    pub fn cascade_in_place(
        &mut self,
        g: &MultiLayerGraph,
        layers: &[Layer],
        d: u32,
        alive: &mut VertexSet,
        degrees: &mut [u32],
    ) {
        assert!(!layers.is_empty(), "cascade_in_place requires a non-empty layer set");
        let n = g.num_vertices();
        assert_eq!(alive.capacity(), n, "candidate set must cover the vertex universe");
        assert!(degrees.len() >= layers.len() * n, "degree arrays too small for |L|·n");
        if d == 0 || alive.is_empty() {
            return;
        }
        self.reserve_queue(n);
        let epoch = self.next_epoch();
        run_cascade(
            g,
            layers,
            d,
            alive,
            degrees,
            &mut self.queue,
            &mut self.queued[..n],
            epoch,
            self.probe.as_deref(),
        );
    }

    /// Single-layer d-core threshold peel, in place. Equivalent to
    /// intersecting with [`crate::d_core_within`] but allocation-free in
    /// steady state.
    pub fn peel_layer_in_place(&mut self, g: &Csr, d: u32, alive: &mut VertexSet) {
        let n = g.num_vertices();
        assert_eq!(alive.capacity(), n, "candidate set must cover the vertex universe");
        if d == 0 || alive.is_empty() {
            return;
        }
        self.reserve_multi(n, 1);
        let epoch = self.next_epoch();
        let probe = self.probe.as_deref();
        let degrees = &mut self.degrees[..n];
        let queued = &mut self.queued[..n];
        let queue = &mut self.queue;
        queue.clear();
        for v in alive.iter() {
            let deg = g.degree_within(v, alive) as u32;
            degrees[v as usize] = deg;
            if deg < d {
                queue.push(v);
                queued[v as usize] = epoch;
            }
        }
        let mut ticks = 0usize;
        while let Some(v) = queue.pop() {
            // Cooperative cancellation: poll every PROBE_STRIDE removals,
            // never per edge. An early return leaves `alive` a superset.
            ticks += 1;
            if ticks.is_multiple_of(PROBE_STRIDE) && probe.is_some_and(CancelProbe::is_hit) {
                return;
            }
            if !alive.remove(v) {
                continue;
            }
            for &u in g.neighbors(v) {
                if !alive.contains(u) {
                    continue;
                }
                let du = &mut degrees[u as usize];
                *du = du.saturating_sub(1);
                if *du < d && queued[u as usize] != epoch {
                    queued[u as usize] = epoch;
                    queue.push(u);
                }
            }
        }
    }

    /// The cascading removal phase over a [`DenseSubgraph`]: `alive` and
    /// `degrees` live in the re-indexed universe `0..m`, neighborhoods are
    /// iterated as `row ∧ alive` words, and `degrees[j*m + v]` must hold the
    /// exact within-`alive` degree of every member on `layers[j]` (kept
    /// exact through the cascade). Queue scratch is borrowed from the
    /// workspace; nothing is allocated in steady state.
    ///
    /// The cascade drains the removal queue **one whole frontier at a
    /// time**: the queued victims are grouped into 64-bit removal words,
    /// removed from `alive` together, and — when the frontier is wide
    /// enough (`|alive| · nz ≤ 2 · batch · W` for `nz` non-zero removal
    /// words, `batch` victims and `W` words per row) — each non-zero
    /// removal word is applied against every surviving row as a word-AND +
    /// popcount, so a survivor's degree drops by `|row ∧ removed|` in a
    /// handful of word ops instead of one scalar decrement per lost edge.
    /// Narrow frontiers keep the per-victim `row ∧ alive` walk. Peeling is
    /// confluent, so both paths — and any batching of the removal order —
    /// produce the same final set and the same surviving degrees.
    ///
    /// `layers` are original layer indices into the dense subgraph's layer
    /// axis.
    pub fn cascade_dense(
        &mut self,
        dense: &DenseSubgraph,
        layers: &[Layer],
        d: u32,
        alive: &mut VertexSet,
        degrees: &mut [u32],
    ) {
        assert!(!layers.is_empty(), "cascade_dense requires a non-empty layer set");
        let m = dense.len();
        assert_eq!(alive.capacity(), m, "alive set must be over the dense universe");
        assert!(degrees.len() >= layers.len() * m, "degree arrays too small for |L|·m");
        if d == 0 || alive.is_empty() {
            return;
        }
        self.reserve_queue(m);
        let epoch = self.next_epoch();
        let probe = self.probe.as_deref();
        let wpr = dense.words_per_row();
        let queue = &mut self.queue;
        let queued = &mut self.queued[..m];
        let removal = &mut self.removal_words;
        let nz = &mut self.removal_nz;
        queue.clear();
        removal.clear();
        removal.resize(wpr, 0);
        for v in alive.iter() {
            let vi = v as usize;
            if (0..layers.len()).any(|j| degrees[j * m + vi] < d) {
                queue.push(v);
                queued[vi] = epoch;
            }
        }
        let kernel = mlgraph::kernels::kernel();
        while !queue.is_empty() {
            // Cooperative cancellation: polled once per removal frontier —
            // the coarsest boundary inside a peel — so the word loops below
            // stay check-free. An early return leaves `alive` a superset.
            if probe.is_some_and(CancelProbe::is_hit) {
                return;
            }
            // Drain the whole frontier into word-grouped removal masks.
            removal[..wpr].fill(0);
            let mut batch = 0usize;
            for v in queue.drain(..) {
                if alive.remove(v) {
                    removal[v as usize / 64] |= 1u64 << (v % 64);
                    batch += 1;
                }
            }
            if batch == 0 {
                continue;
            }
            nz.clear();
            for (w, &word) in removal[..wpr].iter().enumerate() {
                if word != 0 {
                    nz.push(w as u32);
                }
            }
            if alive.len() * nz.len() <= CASCADE_BATCH_CROSSOVER * batch * wpr {
                // Word-batched: subtract `|row ∧ removed|` from every
                // surviving row, scanning only the non-zero removal words.
                for (j, &layer) in layers.iter().enumerate() {
                    for u in alive.iter() {
                        let row = dense.row(layer, u);
                        let delta = if nz.len() == wpr {
                            kernel.and_count(row, &removal[..wpr]) as u32
                        } else {
                            let mut delta = 0u32;
                            for &w in nz.iter() {
                                delta += (row[w as usize] & removal[w as usize]).count_ones();
                            }
                            delta
                        };
                        if delta != 0 {
                            let du = &mut degrees[j * m + u as usize];
                            *du = du.saturating_sub(delta);
                            if *du < d && queued[u as usize] != epoch {
                                queued[u as usize] = epoch;
                                queue.push(u);
                            }
                        }
                    }
                }
            } else {
                // Narrow frontier: walk each victim's surviving neighbors.
                for &w in nz.iter() {
                    let mut bits = removal[w as usize];
                    while bits != 0 {
                        let v = (w as usize * 64 + bits.trailing_zeros() as usize) as Vertex;
                        bits &= bits - 1;
                        for (j, &layer) in layers.iter().enumerate() {
                            let row = dense.row(layer, v);
                            for (wi, (&r, &a)) in row.iter().zip(alive.words().iter()).enumerate() {
                                let mut nb = r & a;
                                while nb != 0 {
                                    let u = (wi * 64 + nb.trailing_zeros() as usize) as Vertex;
                                    nb &= nb - 1;
                                    let du = &mut degrees[j * m + u as usize];
                                    *du = du.saturating_sub(1);
                                    if *du < d && queued[u as usize] != epoch {
                                        queued[u as usize] = epoch;
                                        queue.push(u);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Approximate heap bytes currently held by this workspace's scratch
    /// buffers — dominated by the `|L|·n` degree counters. This is the
    /// per-worker peel memory the large-scale bench records.
    pub fn scratch_bytes(&self) -> usize {
        self.degrees.capacity() * 4
            + self.queue.capacity() * 4
            + self.queued.capacity() * 4
            + self.bin_degree.capacity() * 4
            + self.bins.capacity() * 8
            + self.starts.capacity() * 8
            + self.positions.capacity() * 8
            + self.order.capacity() * 4
            + self.removed.capacity()
            + self.removal_words.capacity() * 8
            + self.removal_nz.capacity() * 4
    }

    /// Batagelj–Zaversnik bin-sort core decomposition of `g[within]`,
    /// written into `core` (resized to `n`; vertices outside `within` get 0).
    /// All intermediate buffers are borrowed from the workspace.
    pub fn core_numbers_into(&mut self, g: &Csr, within: &VertexSet, core: &mut Vec<u32>) {
        let n = g.num_vertices();
        core.clear();
        core.resize(n, 0);
        if within.is_empty() {
            return;
        }
        self.reserve_multi(n, 1);
        if self.positions.len() < n {
            self.positions.resize(n, usize::MAX);
        }
        if self.removed.len() < n {
            self.removed.resize(n, false);
        }
        if self.bin_degree.len() < n {
            self.bin_degree.resize(n, 0);
        }
        let degree = &mut self.bin_degree[..n];
        let positions = &mut self.positions[..n];
        let removed = &mut self.removed[..n];
        removed[..n].fill(false);

        let mut max_degree = 0u32;
        for v in within.iter() {
            let d = g.degree_within(v, within) as u32;
            degree[v as usize] = d;
            max_degree = max_degree.max(d);
        }

        // bins[d] = starting index in `order` of vertices with degree d.
        let bins_len = max_degree as usize + 2;
        self.bins.clear();
        self.bins.resize(bins_len, 0);
        for v in within.iter() {
            self.bins[degree[v as usize] as usize + 1] += 1;
        }
        for d in 1..bins_len {
            self.bins[d] += self.bins[d - 1];
        }
        self.starts.clear();
        self.starts.extend_from_slice(&self.bins);

        let active = within.len();
        self.order.clear();
        self.order.resize(active, 0);
        for v in within.iter() {
            let d = degree[v as usize] as usize;
            positions[v as usize] = self.starts[d];
            self.order[self.starts[d]] = v;
            self.starts[d] += 1;
        }

        let bins = &mut self.bins;
        let order = &mut self.order;
        for i in 0..active {
            let v = order[i];
            let dv = degree[v as usize];
            core[v as usize] = dv;
            removed[v as usize] = true;
            for &u in g.neighbors(v) {
                if !within.contains(u) || removed[u as usize] {
                    continue;
                }
                let du = degree[u as usize];
                if du > dv {
                    // Move u to the front of its bin, then shift it one bin down.
                    let du = du as usize;
                    let pu = positions[u as usize];
                    let pw = bins[du];
                    let w = order[pw];
                    if u != w {
                        order.swap(pu, pw);
                        positions[u as usize] = pw;
                        positions[w as usize] = pu;
                    }
                    bins[du] += 1;
                    degree[u as usize] -= 1;
                }
            }
        }
    }

    /// Incrementally repairs a single-layer d-core after an edge delta
    /// whose deletions are not known, writing the d-core of the **new**
    /// layer into `out`.
    ///
    /// `layer` is the layer *after* the delta, `old_core` the exact d-core
    /// of the layer before it, and `inserted` the canonical edges the delta
    /// added. This is [`PeelWorkspace::repair_d_core_delta`]'s candidate
    /// set `old_core ∪ R`, but without the deleted edges any candidate may
    /// have lost a neighbour, so every candidate is checked, as a peel of
    /// that set would.
    pub fn repair_d_core(
        &mut self,
        layer: &Csr,
        d: u32,
        old_core: &VertexSet,
        inserted: &[(Vertex, Vertex)],
        out: &mut VertexSet,
    ) {
        self.repair(layer, d, old_core, inserted, None, out);
    }

    /// Incrementally repairs a single-layer d-core after an edge delta,
    /// writing the d-core of the **new** layer into `out` in time bounded
    /// by the region the delta can affect, not by the layer.
    ///
    /// `layer` is the layer *after* the delta, `old_core` the exact d-core
    /// of the layer before it, and `inserted` / `deleted` the delta's
    /// canonical, effective edges, as [`mlgraph::LayerDelta`] holds them.
    ///
    /// The new core lies inside `old_core ∪ R`, where `R` is flooded from
    /// the inserted endpoints outside the old core through vertices outside
    /// it whose new-layer degree is at least `d`. A new-core vertex outside
    /// `old_core ∪ R` has no inserted edge (it would seed `R`) and no
    /// neighbour in `R` (it would have been flooded), so the new core's
    /// part outside `old_core ∪ R`, together with `old_core`, would have
    /// been d-dense in the old layer, contradicting the old core's
    /// maximality. Deletions only shrink the core, so this holds for any
    /// delta.
    ///
    /// Inside `old_core ∪ R`, an old-core vertex with no deleted edge keeps
    /// at least `d` neighbours, so only `R` and the deleted endpoints inside
    /// `old_core` are checked. The removal cascade computes any other
    /// vertex's degree only when it first reaches it. Its stamps live in the
    /// workspace's epoch-marked scratch, so a call does no `O(n)` work
    /// beyond copying `old_core` into `out`.
    pub fn repair_d_core_delta(
        &mut self,
        layer: &Csr,
        d: u32,
        old_core: &VertexSet,
        inserted: &[(Vertex, Vertex)],
        deleted: &[(Vertex, Vertex)],
        out: &mut VertexSet,
    ) {
        self.repair(layer, d, old_core, inserted, Some(deleted), out);
    }

    /// Removes `removed` from `core`, the d-core of `layer` within some
    /// vertex set `A`, and cascades, so that on return `core` is the d-core
    /// of `layer` within `A \ removed`. Every vertex that left — the members
    /// of `removed` that were in `core`, then the cascade's victims — is
    /// appended to `left`, once each. `removed` may repeat vertices and name
    /// vertices outside `core`.
    ///
    /// Removing vertices only lowers degrees, so the new core lies inside
    /// `core \ removed` and is its d-core: a chain of shrinks of one core
    /// follows a shrinking `A` exactly, at the cost of the leavers' edges
    /// instead of a peel of the layer.
    ///
    /// `degrees` holds one counter per vertex, owned by the caller across
    /// the whole chain: `u32::MAX` where unknown, otherwise the vertex's
    /// exact degree inside `core`. The cascade computes a counter only when
    /// it first reaches a vertex, and afterwards only decrements it; a
    /// chain starts from a buffer of `u32::MAX`. When the removed members
    /// are at least a sixteenth of the core, they leave at once and every
    /// remaining member's counter is recounted in one pass instead.
    pub fn shrink_d_core(
        &mut self,
        layer: &Csr,
        d: u32,
        core: &mut VertexSet,
        removed: &[Vertex],
        degrees: &mut [u32],
        left: &mut Vec<Vertex>,
    ) {
        let n = layer.num_vertices();
        assert_eq!(core.capacity(), n, "core must cover the vertex universe");
        assert!(degrees.len() >= n, "one degree counter per vertex required");
        if d == 0 {
            // Every vertex of `A` is in its 0-core: only `removed` leaves.
            left.extend(removed.iter().copied().filter(|&v| core.remove(v)));
            return;
        }
        self.reserve_multi(n, 1);
        let queue = &mut self.queue;
        queue.clear();
        queue.extend(removed.iter().copied().filter(|&v| core.contains(v)));
        if queue.len() * SHRINK_RECOUNT_SHARE >= core.len() {
            left.extend(queue.drain(..).filter(|&v| core.remove(v)));
            for v in core.iter() {
                let deg = layer.degree_within(v, core) as u32;
                degrees[v as usize] = deg;
                if deg < d {
                    queue.push(v);
                }
            }
        }
        // A vertex is queued when `removed` names it or when its known
        // degree first falls below `d`. It leaves on its first pop, and only
        // then are its neighbours' counters lowered, so a counter computed
        // earlier in the cascade still sees every vertex yet to leave.
        while let Some(v) = queue.pop() {
            if !core.remove(v) {
                continue;
            }
            left.push(v);
            for &u in layer.neighbors(v) {
                if !core.contains(u) {
                    continue;
                }
                let du = &mut degrees[u as usize];
                if *du == u32::MAX {
                    *du = layer.degree_within(u, core) as u32;
                    if *du < d {
                        queue.push(u);
                    }
                } else {
                    *du -= 1;
                    if *du == d - 1 {
                        queue.push(u);
                    }
                }
            }
        }
    }

    /// The repair behind [`PeelWorkspace::repair_d_core`] (`deleted` is
    /// `None`: every candidate is checked) and
    /// [`PeelWorkspace::repair_d_core_delta`].
    fn repair(
        &mut self,
        layer: &Csr,
        d: u32,
        old_core: &VertexSet,
        inserted: &[(Vertex, Vertex)],
        deleted: Option<&[(Vertex, Vertex)]>,
        out: &mut VertexSet,
    ) {
        let n = layer.num_vertices();
        assert_eq!(old_core.capacity(), n, "old core must cover the vertex universe");
        if d == 0 {
            // The 0-core is always the full universe.
            *out = VertexSet::full(n);
            return;
        }
        if out.capacity() != n {
            *out = old_core.clone();
        } else {
            out.copy_from(old_core);
        }
        self.reserve_multi(n, 1);
        let epoch = self.next_epoch();
        let probe = self.probe.as_deref();
        let degrees = &mut self.degrees[..n];
        // `known[v] == epoch` ⇔ `degrees[v]` is v's exact degree in `out`.
        let known = &mut self.queued[..n];
        let queue = &mut self.queue;
        queue.clear();

        // Flood R into `out`, listing it in `queue`; a non-core vertex is
        // visited once it is in `out`.
        let floodable = |x: Vertex| !old_core.contains(x) && layer.degree(x) >= d as usize;
        for &(u, v) in inserted {
            for w in [u, v] {
                if floodable(w) && out.insert(w) {
                    queue.push(w);
                }
            }
        }
        let mut head = 0;
        while head < queue.len() {
            let w = queue[head];
            head += 1;
            for &x in layer.neighbors(w) {
                if floodable(x) && out.insert(x) {
                    queue.push(x);
                }
            }
        }

        // Seed the cascade with the checked candidates below the threshold;
        // a vertex is checked at most once.
        let mut check = |v: Vertex, out: &VertexSet| {
            if known[v as usize] == epoch {
                return false;
            }
            known[v as usize] = epoch;
            let deg = layer.degree_within(v, out) as u32;
            degrees[v as usize] = deg;
            deg < d
        };
        match deleted {
            Some(deleted) => {
                queue.retain(|&x| check(x, out));
                for &(u, v) in deleted {
                    for w in [u, v] {
                        if old_core.contains(w) && check(w, out) {
                            queue.push(w);
                        }
                    }
                }
            }
            None => {
                queue.clear();
                queue.extend(out.iter().filter(|&v| check(v, out)));
            }
        }

        // Each vertex is queued once: when its known degree first falls
        // below `d`, which degrees only ever decrease through.
        let mut ticks = 0usize;
        while let Some(v) = queue.pop() {
            // Cooperative cancellation, as in the peels: an early return
            // leaves `out` a superset of the new core.
            ticks += 1;
            if ticks.is_multiple_of(PROBE_STRIDE) && probe.is_some_and(CancelProbe::is_hit) {
                return;
            }
            out.remove(v);
            for &u in layer.neighbors(v) {
                if !out.contains(u) {
                    continue;
                }
                let du = &mut degrees[u as usize];
                if known[u as usize] != epoch {
                    known[u as usize] = epoch;
                    *du = layer.degree_within(u, out) as u32;
                    if *du < d {
                        queue.push(u);
                    }
                } else {
                    *du -= 1;
                    if *du == d - 1 {
                        queue.push(u);
                    }
                }
            }
        }
    }
}

/// [`PeelWorkspace::shrink_d_core`] recounts every remaining member's
/// degree in one pass once the removed members number at least
/// `1/SHRINK_RECOUNT_SHARE` of the core. A cascade from that many removals
/// reaches most members anyway, each through a random access to its
/// adjacency, while the recount reads the adjacency in vertex order. On
/// Chung–Lu layers of 2×10^5 and 10^6 vertices the vertex-deletion
/// fixpoint ran fastest at 16 of the shares 4, 8, 16, 32 and 64, in about
/// half the time it took with no recount.
const SHRINK_RECOUNT_SHARE: usize = 16;

/// How many removals a CSR cascade performs between cancellation-probe
/// polls: coarse enough that the poll (one relaxed load, occasionally a
/// clock read) never shows up next to the per-edge work, fine enough that a
/// deadline is honored within a few thousand edge updates.
const PROBE_STRIDE: usize = 128;

/// The cascading removal phase shared by [`PeelWorkspace::peel_in_place`]
/// and [`PeelWorkspace::cascade_in_place`]: seeds the queue with every
/// member of `alive` violating the threshold, then cascades removals while
/// keeping `degrees` exact within the shrinking set. `queued` marks use the
/// given epoch value, so no O(n) reset is ever performed. A tripped `probe`
/// aborts the cascade early (polled every [`PROBE_STRIDE`] removals),
/// leaving `alive` a superset of the true core.
#[allow(clippy::too_many_arguments)]
fn run_cascade(
    g: &MultiLayerGraph,
    layers: &[Layer],
    d: u32,
    alive: &mut VertexSet,
    degrees: &mut [u32],
    queue: &mut Vec<Vertex>,
    queued: &mut [u32],
    epoch: u32,
    probe: Option<&CancelProbe>,
) {
    let n = g.num_vertices();
    queue.clear();
    for v in alive.iter() {
        let vi = v as usize;
        if (0..layers.len()).any(|j| degrees[j * n + vi] < d) {
            queue.push(v);
            queued[vi] = epoch;
        }
    }
    let mut ticks = 0usize;
    while let Some(v) = queue.pop() {
        ticks += 1;
        if ticks.is_multiple_of(PROBE_STRIDE) && probe.is_some_and(CancelProbe::is_hit) {
            return;
        }
        if !alive.remove(v) {
            continue;
        }
        for (j, &i) in layers.iter().enumerate() {
            let csr = g.layer(i);
            for &u in csr.neighbors(v) {
                if !alive.contains(u) {
                    continue;
                }
                let du = &mut degrees[j * n + u as usize];
                *du = du.saturating_sub(1);
                if *du < d && queued[u as usize] != epoch {
                    queued[u as usize] = epoch;
                    queue.push(u);
                }
            }
        }
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<PeelWorkspace> = RefCell::new(PeelWorkspace::new());
}

/// Runs `f` with this thread's shared [`PeelWorkspace`].
///
/// The historical allocating entry points (`d_coherent_core`, `d_core`, …)
/// route through this, so repeated calls reuse one per-thread scratch
/// allocation. `f` must not re-enter another workspace-borrowing entry point
/// (it would panic on the nested `RefCell` borrow); callers composing peels
/// should own an explicit `PeelWorkspace` instead.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut PeelWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlgraph::MultiLayerGraphBuilder;

    fn graph() -> MultiLayerGraph {
        let mut b = MultiLayerGraphBuilder::new(7, 2);
        for (u, v) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)] {
            b.add_edge(0, u, v).unwrap();
        }
        for (u, v) in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6)] {
            b.add_edge(1, u, v).unwrap();
        }
        b.build()
    }

    #[test]
    fn peel_matches_allocating_reference() {
        let g = graph();
        let mut ws = PeelWorkspace::new();
        for d in 0..=4u32 {
            for layers in [vec![0usize], vec![1], vec![0, 1]] {
                let mut alive = g.full_vertex_set();
                ws.peel_in_place(&g, &layers, d, &mut alive);
                let reference =
                    crate::dcc::d_coherent_core_naive(&g, &layers, d, &g.full_vertex_set());
                assert_eq!(alive.to_vec(), reference.to_vec(), "d={d} layers={layers:?}");
            }
        }
    }

    #[test]
    fn workspace_reuse_across_shapes_is_sound() {
        let g = graph();
        let mut ws = PeelWorkspace::new();
        // Interleave different layer counts and thresholds; stale buffer
        // contents must never leak between calls.
        for (layers, d) in
            [(vec![0usize, 1], 2u32), (vec![0], 3), (vec![0, 1], 3), (vec![1], 2), (vec![0, 1], 2)]
        {
            let mut alive = g.full_vertex_set();
            ws.peel_in_place(&g, &layers, d, &mut alive);
            let reference = crate::dcc::d_coherent_core_naive(&g, &layers, d, &g.full_vertex_set());
            assert_eq!(alive.to_vec(), reference.to_vec(), "d={d} layers={layers:?}");
        }
    }

    #[test]
    fn single_layer_peel_matches_d_core() {
        let g = graph();
        let mut ws = PeelWorkspace::new();
        for d in 0..=4u32 {
            let mut alive = g.full_vertex_set();
            ws.peel_layer_in_place(g.layer(0), d, &mut alive);
            assert_eq!(alive.to_vec(), crate::peel::d_core(g.layer(0), d).to_vec(), "d={d}");
        }
    }

    #[test]
    fn core_numbers_into_matches_free_function() {
        let g = graph();
        let mut ws = PeelWorkspace::new();
        let mut core = Vec::new();
        let all = g.full_vertex_set();
        ws.core_numbers_into(g.layer(0), &all, &mut core);
        assert_eq!(core, crate::peel::core_numbers(g.layer(0)));
        // Reuse with a restricted set.
        let within = VertexSet::from_iter(7, [0, 1, 2, 4, 5, 6]);
        ws.core_numbers_into(g.layer(1), &within, &mut core);
        assert_eq!(core, crate::peel::core_numbers_within(g.layer(1), &within));
    }

    /// The word-batched dense cascade must peel to exactly the naive d-CC —
    /// on shapes wide enough to take the batched frontier path (a large
    /// near-complete graph whose first frontier removes many vertices at
    /// once) and on shapes that stay on the per-victim path.
    #[test]
    fn word_batched_dense_cascade_matches_naive() {
        // 150 vertices, 2 layers: a dense clique core {0..100} plus a
        // sparse fringe 100..150 that cascades away in wide frontiers.
        let n = 150usize;
        let mut b = MultiLayerGraphBuilder::new(n, 2);
        for layer in 0..2 {
            for u in 0..100u32 {
                for v in (u + 1)..100 {
                    b.add_edge(layer, u, v).unwrap();
                }
            }
            for v in 100..n as u32 {
                b.add_edge(layer, v, v - 100).unwrap();
                b.add_edge(layer, v, (v - 100 + 1) % 100).unwrap();
            }
        }
        let g = b.build();
        let universe = g.full_vertex_set();
        let dense = DenseSubgraph::build(&g, &universe);
        let mut ws = PeelWorkspace::new();
        for (layers, d) in
            [(vec![0usize], 3u32), (vec![0, 1], 3), (vec![0, 1], 50), (vec![0, 1], 99)]
        {
            let mut alive = VertexSet::full(n);
            let mut degrees = vec![0u32; layers.len() * n];
            for (j, &layer) in layers.iter().enumerate() {
                for v in alive.iter() {
                    degrees[j * n + v as usize] = dense.degree_within(layer, v, &alive) as u32;
                }
            }
            ws.cascade_dense(&dense, &layers, d, &mut alive, &mut degrees);
            let reference = crate::dcc::d_coherent_core_naive(&g, &layers, d, &universe);
            assert_eq!(alive.to_vec(), reference.to_vec(), "layers={layers:?} d={d}");
            // Surviving degrees must stay exact.
            for (j, &layer) in layers.iter().enumerate() {
                for v in alive.iter() {
                    assert_eq!(
                        degrees[j * n + v as usize] as usize,
                        dense.degree_within(layer, v, &alive),
                        "stale degree for v={v} layer={layer} d={d}"
                    );
                }
            }
        }
        assert!(ws.scratch_bytes() > 0);
    }

    /// A pre-tripped probe aborts a dense cascade at the first frontier
    /// (leaving the alive set a strict superset of the true core), and
    /// clearing the probe restores exact peeling on the same workspace.
    #[test]
    fn tripped_probe_aborts_cascades_and_clears_cleanly() {
        let n = 150usize;
        let mut b = MultiLayerGraphBuilder::new(n, 1);
        for u in 0..100u32 {
            for v in (u + 1)..100 {
                b.add_edge(0, u, v).unwrap();
            }
        }
        for v in 100..n as u32 {
            b.add_edge(0, v, v - 100).unwrap();
        }
        let g = b.build();
        let universe = g.full_vertex_set();
        let dense = DenseSubgraph::build(&g, &universe);
        let reference = crate::dcc::d_coherent_core_naive(&g, &[0], 50, &universe);
        assert_eq!(reference.len(), 100);

        let mut ws = PeelWorkspace::new();
        let probe = Arc::new(CancelProbe::new());
        probe.cancel();
        ws.set_probe(Some(Arc::clone(&probe)));
        let mut alive = VertexSet::full(n);
        let mut degrees = vec![0u32; n];
        for v in alive.iter() {
            degrees[v as usize] = dense.degree_within(0, v, &alive) as u32;
        }
        ws.cascade_dense(&dense, &[0], 50, &mut alive, &mut degrees);
        // Aborted at the first frontier: nothing was removed yet.
        assert_eq!(alive.len(), n, "tripped probe must abort before any removal");

        ws.set_probe(None);
        let mut exact = VertexSet::full(n);
        let mut degrees = vec![0u32; n];
        for v in exact.iter() {
            degrees[v as usize] = dense.degree_within(0, v, &exact) as u32;
        }
        ws.cascade_dense(&dense, &[0], 50, &mut exact, &mut degrees);
        assert_eq!(exact.to_vec(), reference.to_vec());
    }

    #[test]
    fn probe_trips_on_its_deadline() {
        let probe = CancelProbe::with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        assert!(!probe.cancelled(), "deadline not yet observed");
        assert!(probe.is_hit(), "past deadline must trip the probe");
        assert!(probe.cancelled(), "the hit is latched into the flag");
        let future =
            CancelProbe::with_deadline(Instant::now() + std::time::Duration::from_secs(600));
        assert!(!future.is_hit());
        future.cancel();
        assert!(future.is_hit());
    }

    #[test]
    fn with_capacity_presizes() {
        let ws = PeelWorkspace::with_capacity(100, 4);
        assert!(ws.degrees.len() >= 400);
        assert!(ws.queued.len() >= 100);
    }

    /// Deterministic splitmix64 stream for the repair oracle tests — the
    /// crate deliberately takes no RNG dependency.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn random_csr(rng: &mut Lcg, n: usize, m: usize) -> Csr {
        let mut edges = Vec::with_capacity(m);
        while edges.len() < m {
            let u = rng.below(n) as Vertex;
            let v = rng.below(n) as Vertex;
            if u != v {
                edges.push((u, v));
            }
        }
        Csr::from_edges(n, &edges)
    }

    type EdgeList = Vec<(Vertex, Vertex)>;

    /// Draws an effective canonical delta against `g`: `dels` existing
    /// edges and `ins` fresh ones, disjoint by construction.
    fn random_delta(rng: &mut Lcg, g: &Csr, dels: usize, ins: usize) -> (EdgeList, EdgeList) {
        let n = g.num_vertices();
        let mut existing: Vec<(Vertex, Vertex)> = g.edges().collect();
        let mut deleted = Vec::new();
        for _ in 0..dels.min(existing.len()) {
            let i = rng.below(existing.len());
            deleted.push(existing.swap_remove(i));
        }
        let mut inserted = Vec::new();
        let mut guard = 0;
        while inserted.len() < ins && guard < ins * 100 {
            guard += 1;
            let u = rng.below(n) as Vertex;
            let v = rng.below(n) as Vertex;
            if u == v {
                continue;
            }
            let e = if u < v { (u, v) } else { (v, u) };
            if g.has_edge(e.0, e.1) && !deleted.contains(&e) {
                continue;
            }
            if deleted.contains(&e) || inserted.contains(&e) {
                continue;
            }
            inserted.push(e);
        }
        inserted.sort_unstable();
        deleted.sort_unstable();
        (inserted, deleted)
    }

    /// Incremental d-core repair must be bit-identical to a full re-peel of
    /// the mutated layer, across random graphs, deltas, and thresholds —
    /// including delete-only, insert-only, and layer-emptying deltas, and a
    /// delta whose inserted and deleted edges share an endpoint. Both calls
    /// run on every case: deletions unknown and deletions known.
    #[test]
    fn repair_d_core_matches_full_peel() {
        let mut rng = Lcg(7);
        let mut ws = PeelWorkspace::new();
        let mut check = |g: &Csr, inserted: &[(Vertex, Vertex)], deleted: &[(Vertex, Vertex)]| {
            let n = g.num_vertices();
            let next = g.rebuild_with_delta(inserted, deleted);
            for d in 0..=4u32 {
                let old_core = crate::peel::d_core(g, d);
                let oracle = crate::peel::d_core(&next, d).to_vec();
                let mut repaired = VertexSet::new(n);
                ws.repair_d_core(&next, d, &old_core, inserted, &mut repaired);
                assert_eq!(repaired.to_vec(), oracle, "d={d} ins={inserted:?} del={deleted:?}");
                ws.repair_d_core_delta(&next, d, &old_core, inserted, deleted, &mut repaired);
                assert_eq!(repaired.to_vec(), oracle, "d={d} ins={inserted:?} del={deleted:?}");
            }
        };
        for _ in 0..30 {
            let n = 20 + rng.below(40);
            let g = random_csr(&mut rng, n, n * 2);
            let (dels, ins) = (rng.below(8), rng.below(8));
            let (inserted, deleted) = random_delta(&mut rng, &g, dels, ins);
            check(&g, &inserted, &deleted);
        }
        // Vertex 0 of a 4-clique loses one clique edge and gains an edge to
        // the pendant vertex 4 in the same delta.
        let clique = Csr::from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5)]);
        check(&clique, &[(0, 4)], &[(0, 1)]);
        // Empty the layer entirely, then refill it.
        let g = random_csr(&mut rng, 12, 20);
        let all: Vec<(Vertex, Vertex)> = g.edges().collect();
        check(&g, &[], &all);
        check(&g.rebuild_with_delta(&[], &all), &all, &[]);
    }

    /// Chained shrinks of one core over one counter buffer must each yield
    /// the peel of the previous core minus the removed vertices, report
    /// exactly the vertices that left, and leave every known counter of a
    /// remaining member exact. Removal lists repeat a vertex and name
    /// vertices outside the core. The first ones are small, so the cascade
    /// reaches members one by one; then a quarter of the vertices goes at
    /// once, which recounts the core; the last one removes everything.
    #[test]
    fn shrink_d_core_matches_peel_of_the_shrunken_set() {
        let mut rng = Lcg(11);
        let mut ws = PeelWorkspace::new();
        for _ in 0..30 {
            let n = 100 + rng.below(200);
            let g = random_csr(&mut rng, n, n * 3);
            for d in 0..=3u32 {
                let mut core = crate::peel::d_core(&g, d);
                let mut degrees = vec![u32::MAX; n];
                let mut left = Vec::new();
                for step in 0..7 {
                    let picks = match step {
                        6 => n,
                        5 => n / 4,
                        _ => 1 + rng.below(4),
                    };
                    let mut removed: Vec<Vertex> = if picks == n {
                        (0..n as Vertex).collect()
                    } else {
                        (0..picks).map(|_| rng.below(n) as Vertex).collect()
                    };
                    removed.push(removed[0]);
                    let prev = core.clone();
                    left.clear();
                    ws.shrink_d_core(&g, d, &mut core, &removed, &mut degrees, &mut left);
                    let mut within = prev.clone();
                    for &v in &removed {
                        within.remove(v);
                    }
                    let label = format!("n={n} d={d} step={step} removed={removed:?}");
                    let oracle = crate::peel::d_core_within(&g, d, &within);
                    assert_eq!(core.to_vec(), oracle.to_vec(), "{label}");
                    left.sort_unstable();
                    assert_eq!(left, prev.difference(&core).to_vec(), "{label}");
                    for v in core.iter() {
                        let known = degrees[v as usize];
                        if known != u32::MAX {
                            assert_eq!(known as usize, g.degree_within(v, &core), "{label} v={v}");
                        }
                    }
                }
                assert!(core.is_empty(), "removing everything must empty the core");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty layer set")]
    fn empty_layer_set_panics() {
        let g = graph();
        let mut alive = g.full_vertex_set();
        PeelWorkspace::new().peel_in_place(&g, &[], 1, &mut alive);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_layer_panics() {
        let g = graph();
        let mut alive = g.full_vertex_set();
        PeelWorkspace::new().peel_in_place(&g, &[9], 1, &mut alive);
    }
}
