//! `dmt_server`: a deterministic request-serving workload.
//!
//! The ROADMAP north-star is "heavy traffic from millions of users"; this
//! workload is that shape at laptop scale — a KV-store server whose thread
//! pool drains a work queue of thousands of simulated client requests
//! (`Add`, `Get`, `Transfer`) against a striped-lock store. Requests are a
//! pure function of `(seed, scale)`, so every run of a deterministic
//! runtime replays the same traffic.
//!
//! # Epochs and domains
//!
//! The same per-domain job serves two masters: the unsharded registry
//! workload (one domain owning every key) and the `dmt-shard` sharded
//! runtime (one domain per shard, each owning the keys its shard map
//! assigns it). Requests execute in *epochs*: each epoch the driver
//! (`Tid(0)`) pushes the epoch's requests plus one end-of-epoch marker per
//! worker into the queue, waits for the pool at a barrier, then exchanges
//! cross-domain `Transfer` credits through an [`Exchange`] before opening
//! the next epoch. Credits debited in epoch `e` land in the destination
//! domain at epoch `e + 1` — the deterministic cross-shard rendezvous.
//! With one domain the exchange returns every credit to its sender
//! unchanged, so the unsharded workload runs the *identical* job the
//! 1-shard configuration runs (the `shard_lockstep` oracle).
//!
//! # Validation
//!
//! All store mutations are wrapping additions (a `Transfer` is a debit
//! plus a credit), so the final store is order-invariant: it must equal
//! the sequential reference under any interleaving, any shard count, and
//! any runtime — that invariance is the sharded server's semantic oracle. `Get`
//! responses fold into per-worker accumulators and are deterministic per
//! configuration but legitimately differ across shard counts; they count
//! toward the output hash, not the reference check.

use std::sync::Arc;

use dmt_api::{BarrierId, Fnv1a, Job, MemExt, MutexId, Runtime, RuntimeMemExt, ThreadCtx, Tid};

use crate::layout::{partition, Layout};
use crate::queue::ShmQueue;
use crate::rng::{mix64, SplitMix64};
use crate::spec::{Params, Prepared, Validation, Workload};

/// End-of-epoch control value: each worker that pops one stops popping
/// until the next epoch opens. Tag bits `11` are reserved for control
/// values, so no encoded request collides.
pub const EPOCH_MARKER: u64 = 3 << 62;

/// One simulated client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Wrapping-add `delta` to the key's value.
    Add {
        /// Amount added (wrapping).
        delta: u64,
    },
    /// Read the key's value into the serving worker's response
    /// accumulator.
    Get,
    /// Debit `amount` from the request key and credit it to `dst` —
    /// possibly in another shard domain.
    Transfer {
        /// Destination key (global id).
        dst: u64,
        /// Amount moved (wrapping debit + credit).
        amount: u64,
    },
}

/// One simulated client request against a global key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Global key the request targets (the shard-map input).
    pub key: u64,
    /// The operation.
    pub op: Op,
}

/// Packs a request into one queue cell. Layout: tag in bits 62–63
/// (`00` Add, `01` Get, `10` Transfer), then per-tag fields; tag `11` is
/// reserved for control values like [`EPOCH_MARKER`].
pub fn encode_request(r: &Request) -> u64 {
    debug_assert!(r.key < 1 << 20);
    match r.op {
        Op::Add { delta } => {
            debug_assert!(delta < 1 << 32);
            r.key << 32 | delta
        }
        Op::Get => 1 << 62 | r.key << 32,
        Op::Transfer { dst, amount } => {
            debug_assert!(dst < 1 << 20 && amount < 1 << 22);
            2 << 62 | r.key << 42 | dst << 22 | amount
        }
    }
}

/// Inverse of [`encode_request`].
pub fn decode_request(v: u64) -> Request {
    match v >> 62 {
        0 => Request {
            key: v >> 32 & ((1 << 20) - 1),
            op: Op::Add {
                delta: v & ((1 << 32) - 1),
            },
        },
        1 => Request {
            key: v >> 32 & ((1 << 20) - 1),
            op: Op::Get,
        },
        2 => Request {
            key: v >> 42 & ((1 << 20) - 1),
            op: Op::Transfer {
                dst: v >> 22 & ((1 << 20) - 1),
                amount: v & ((1 << 22) - 1),
            },
        },
        _ => panic!("control value {v:#x} is not a request"),
    }
}

/// Server sizing: key-space, request volume and epoch structure, all a
/// pure function of [`Params`].
#[derive(Clone, Copy, Debug)]
pub struct ServerSpec {
    /// Global key-space size (each key one u64 cell).
    pub keys: usize,
    /// Total simulated client requests across all domains.
    pub requests: usize,
    /// Rendezvous epochs the request stream is served in.
    pub epochs: usize,
    /// Striped store locks per domain.
    pub stripes: usize,
    /// Work-queue capacity per domain.
    pub queue_cap: usize,
    /// Input-generation seed.
    pub seed: u64,
}

impl ServerSpec {
    /// Sizing for the given parameters (`scale` multiplies traffic).
    pub fn of(p: &Params) -> ServerSpec {
        ServerSpec {
            keys: 1024,
            requests: 2000 * p.scale as usize,
            epochs: 4,
            stripes: 16,
            queue_cap: 64,
            seed: p.seed,
        }
    }

    /// The full request stream, in global arrival order. Pure function of
    /// the spec: ~50% `Add`, ~30% `Get`, ~20% `Transfer`.
    pub fn request_stream(&self) -> Vec<Request> {
        assert!(self.keys <= 1 << 20, "key space exceeds encoding");
        let mut g = SplitMix64::derive(self.seed, 0x5e11);
        (0..self.requests)
            .map(|_| {
                let key = g.below(self.keys as u64);
                let op = match g.below(10) {
                    0..=4 => Op::Add {
                        delta: g.below(1 << 20),
                    },
                    5..=7 => Op::Get,
                    _ => Op::Transfer {
                        dst: g.below(self.keys as u64),
                        amount: g.below(1 << 20),
                    },
                };
                Request { key, op }
            })
            .collect()
    }

    /// Initial store contents, indexed by global key.
    pub fn initial_store(&self) -> Vec<u64> {
        let mut g = SplitMix64::derive(self.seed, 0x51012e);
        (0..self.keys).map(|_| g.below(1 << 30)).collect()
    }

    /// Sequential reference: the final store after applying every request
    /// in arrival order. Because all mutations commute (wrapping adds),
    /// every correct parallel/sharded execution must end here too.
    pub fn expected_store(&self) -> Vec<u64> {
        let mut store = self.initial_store();
        for r in self.request_stream() {
            match r.op {
                Op::Add { delta } => {
                    store[r.key as usize] = store[r.key as usize].wrapping_add(delta);
                }
                Op::Get => {}
                Op::Transfer { dst, amount } => {
                    store[r.key as usize] = store[r.key as usize].wrapping_sub(amount);
                    store[dst as usize] = store[dst as usize].wrapping_add(amount);
                }
            }
        }
        store
    }
}

/// One shard domain's slice of the server: the keys it owns and its
/// per-epoch request load (requests routed by *source* key).
#[derive(Clone, Debug)]
pub struct DomainPlan {
    /// The domain's index among `shards`.
    pub domain: usize,
    /// Owned global keys, ascending; position is the local store index.
    pub keys: Vec<u64>,
    /// Requests per epoch, in global arrival order within each epoch.
    pub epochs: Vec<Vec<Request>>,
}

impl DomainPlan {
    /// Partitions the spec's key space and request stream across `shards`
    /// domains with the deterministic `assign` map (global key → domain).
    ///
    /// # Panics
    ///
    /// Panics if `assign` returns a domain `>= shards`.
    pub fn build(
        spec: &ServerSpec,
        shards: usize,
        assign: &dyn Fn(u64) -> usize,
    ) -> Vec<DomainPlan> {
        let mut plans: Vec<DomainPlan> = (0..shards)
            .map(|d| DomainPlan {
                domain: d,
                keys: Vec::new(),
                epochs: vec![Vec::new(); spec.epochs],
            })
            .collect();
        for k in 0..spec.keys as u64 {
            let d = assign(k);
            assert!(d < shards, "shard map sent key {k} to domain {d}");
            plans[d].keys.push(k);
        }
        // Epoch e takes the e-th near-equal chunk of the global stream, so
        // every domain agrees on which requests belong to which epoch.
        let stream = spec.request_stream();
        for (i, r) in stream.iter().enumerate() {
            let (d, e) = (assign(r.key), epoch_of(i, stream.len(), spec.epochs));
            plans[d].epochs[e].push(*r);
        }
        plans
    }
}

fn epoch_of(i: usize, n: usize, epochs: usize) -> usize {
    (0..epochs)
        .find(|&e| {
            let (s, t) = partition(n, epochs, e);
            (s..t).contains(&i)
        })
        .unwrap_or(epochs - 1)
}

/// Host-side cross-domain credit exchange, called by each domain driver
/// between epochs.
///
/// The driver hands over the `(global key, amount)` credits its workers
/// debited toward other domains this epoch, and receives the credits
/// destined for *its* keys — already in canonical `(source domain, outbox
/// order)` order, which is deterministic because each source outbox is
/// filled under its domain's token. Implementations must block until
/// every sibling domain of the same epoch has arrived (the rendezvous
/// barrier); [`LocalExchange`] is the trivial single-domain case.
pub trait Exchange: Send + Sync {
    /// Exchanges `outgoing` credits of `domain` at the end of `epoch` for
    /// the credits addressed to it.
    fn exchange(&self, domain: usize, epoch: usize, outgoing: Vec<(u64, u64)>) -> Vec<(u64, u64)>;
}

/// Single-domain [`Exchange`]: every credit comes straight back to its
/// sender (all keys are local), preserving outbox order.
pub struct LocalExchange;

impl Exchange for LocalExchange {
    fn exchange(&self, _: usize, _: usize, outgoing: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        outgoing
    }
}

/// A prepared per-domain server instance: heap addresses, sync objects
/// and the key index, kept for post-run inspection.
#[derive(Clone)]
pub struct DomainServer {
    spec: ServerSpec,
    /// Local store base (one cell per owned key).
    store: usize,
    /// Per-worker response accumulators.
    resp: usize,
    /// `[processed]` control cell.
    ctrl: usize,
    workers: usize,
    /// Owned global keys (local index → global key).
    keys: Arc<Vec<u64>>,
}

impl DomainServer {
    /// Heap pages one domain owning `nkeys` keys with `workers` workers
    /// needs. Mirrors the layout `prepare` builds.
    pub fn heap_pages(spec: &ServerSpec, nkeys: usize, workers: usize) -> usize {
        let mut l = Layout::new();
        Self::layout(&mut l, spec, nkeys, workers.max(1));
        // The ShmQueue reservation prepare() makes on the same layout.
        l.cells_page_aligned(4 + spec.queue_cap);
        l.pages()
    }

    fn layout(
        l: &mut Layout,
        spec: &ServerSpec,
        nkeys: usize,
        workers: usize,
    ) -> (usize, usize, usize, usize) {
        let store = l.cells_page_aligned(nkeys.max(1));
        let resp = l.cells_page_aligned(workers);
        let ctrl = l.cells_page_aligned(1);
        let outbox = l.cells_page_aligned(1 + 2 * spec.requests.max(1));
        (store, resp, ctrl, outbox)
    }

    /// Builds one domain's server against a fresh runtime: lays out and
    /// initializes the heap, creates the queue, stripes and barriers, and
    /// returns the driver job plus this handle.
    pub fn prepare(
        rt: &mut dyn Runtime,
        spec: &ServerSpec,
        plan: &DomainPlan,
        workers: usize,
        exchange: Arc<dyn Exchange>,
    ) -> (Job, DomainServer) {
        let workers = workers.max(1);
        let nkeys = plan.keys.len();
        let mut l = Layout::new();
        let (store, resp, ctrl, outbox) = Self::layout(&mut l, spec, nkeys, workers);
        let queue = ShmQueue::create(rt, &mut l, spec.queue_cap);
        queue.init(rt);

        let stripes: Arc<Vec<MutexId>> =
            Arc::new((0..spec.stripes).map(|_| rt.create_mutex()).collect());
        let outbox_m = rt.create_mutex();
        let start_b: BarrierId = rt.create_barrier(workers + 1);
        let end_b: BarrierId = rt.create_barrier(workers + 1);

        // Initial store: the owned slice of the global initial image.
        let init = spec.initial_store();
        let local_init: Vec<u64> = plan.keys.iter().map(|&k| init[k as usize]).collect();
        if !local_init.is_empty() {
            rt.init_u64_slice(store, &local_init);
        }
        rt.init_u64(ctrl, 0);
        rt.init_u64(outbox, 0);

        // Global key → local store index; u32::MAX marks foreign keys.
        let mut key_map = vec![u32::MAX; spec.keys];
        for (i, &k) in plan.keys.iter().enumerate() {
            key_map[k as usize] = i as u32;
        }
        let key_map: Arc<Vec<u32>> = Arc::new(key_map);

        let epoch_stream: Arc<Vec<Vec<u64>>> = Arc::new(
            plan.epochs
                .iter()
                .map(|reqs| reqs.iter().map(encode_request).collect())
                .collect(),
        );

        let nstripes = spec.stripes;
        let epochs = spec.epochs;
        let domain = plan.domain;
        let km_workers = Arc::clone(&key_map);
        let job: Job = Box::new(move |ctx| {
            let kids: Vec<Tid> = (0..workers)
                .map(|w| {
                    let km = Arc::clone(&km_workers);
                    let st = Arc::clone(&stripes);
                    ctx.spawn(Box::new(move |c| {
                        serve(
                            c, w, epochs, queue, store, resp, ctrl, outbox, outbox_m, start_b,
                            end_b, &km, &st,
                        );
                    }))
                })
                .collect();
            for e in 0..epochs {
                ctx.barrier_wait(start_b);
                for &v in &epoch_stream[e] {
                    queue.push(ctx, v);
                }
                for _ in 0..workers {
                    queue.push(ctx, EPOCH_MARKER);
                }
                ctx.barrier_wait(end_b);
                // Rendezvous: drain this epoch's outgoing credits, swap
                // them through the exchange, apply what came back. The
                // pool is parked at the next start barrier, so the driver
                // mutates the store alone — still under its stripe locks,
                // so the schedule stays uniform.
                let n = ctx.ld_u64(outbox) as usize;
                let outgoing: Vec<(u64, u64)> = (0..n)
                    .map(|i| {
                        (
                            ctx.ld_u64(outbox + 8 + 16 * i),
                            ctx.ld_u64(outbox + 16 + 16 * i),
                        )
                    })
                    .collect();
                ctx.st_u64(outbox, 0);
                for (key, amount) in exchange.exchange(domain, e, outgoing) {
                    let li = km_workers[key as usize];
                    assert!(li != u32::MAX, "credit for foreign key {key}");
                    let m = stripes[li as usize % nstripes];
                    ctx.mutex_lock(m);
                    let v = ctx.ld_u64(store + 8 * li as usize);
                    ctx.st_u64(store + 8 * li as usize, v.wrapping_add(amount));
                    ctx.mutex_unlock(m);
                }
            }
            for k in kids {
                ctx.join(k);
            }
        });

        let srv = DomainServer {
            spec: *spec,
            store,
            resp,
            ctrl,
            workers,
            keys: Arc::new(plan.keys.clone()),
        };
        (job, srv)
    }

    /// Final `(global key, value)` pairs of this domain's store slice, in
    /// ascending key order.
    pub fn final_kv(&self, rt: &dyn Runtime) -> Vec<(u64, u64)> {
        let mut vals = vec![0u64; self.keys.len()];
        if !vals.is_empty() {
            rt.final_u64_slice(self.store, &mut vals);
        }
        self.keys.iter().copied().zip(vals).collect()
    }

    /// Final per-worker `Get` response accumulators.
    pub fn final_resp(&self, rt: &dyn Runtime) -> Vec<u64> {
        let mut vals = vec![0u64; self.workers];
        rt.final_u64_slice(self.resp, &mut vals);
        vals
    }

    /// Requests this domain processed (its share of `spec.requests`).
    pub fn processed(&self, rt: &dyn Runtime) -> u64 {
        let mut v = [0u64; 1];
        rt.final_u64_slice(self.ctrl, &mut v);
        v[0]
    }

    /// Folds the domain's full observable output — store, responses,
    /// processed count — into one digest.
    pub fn output_hash(&self, rt: &dyn Runtime) -> u64 {
        let mut h = Fnv1a::new();
        for (k, v) in self.final_kv(rt) {
            h.update(&k.to_le_bytes());
            h.update(&v.to_le_bytes());
        }
        for r in self.final_resp(rt) {
            h.update(&r.to_le_bytes());
        }
        h.update(&self.processed(rt).to_le_bytes());
        h.digest()
    }

    /// The spec this domain was prepared with.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }
}

/// One pool worker: pop until the epoch marker, serve each request, meet
/// the pool at the end barrier, repeat for every epoch.
#[allow(clippy::too_many_arguments)]
fn serve(
    c: &mut dyn ThreadCtx,
    w: usize,
    epochs: usize,
    queue: ShmQueue,
    store: usize,
    resp: usize,
    ctrl: usize,
    outbox: usize,
    outbox_m: MutexId,
    start_b: BarrierId,
    end_b: BarrierId,
    key_map: &[u32],
    stripes: &[MutexId],
) {
    for _ in 0..epochs {
        c.barrier_wait(start_b);
        loop {
            let v = queue.pop(c);
            if v == EPOCH_MARKER {
                break;
            }
            let r = decode_request(v);
            let li = key_map[r.key as usize];
            debug_assert!(li != u32::MAX, "request routed to wrong domain");
            let cell = store + 8 * li as usize;
            let m = stripes[li as usize % stripes.len()];
            c.tick(120); // simulated request-handling work
            match r.op {
                Op::Add { delta } => {
                    c.mutex_lock(m);
                    let v = c.ld_u64(cell);
                    c.st_u64(cell, v.wrapping_add(delta));
                    c.mutex_unlock(m);
                }
                Op::Get => {
                    c.mutex_lock(m);
                    let v = c.ld_u64(cell);
                    c.mutex_unlock(m);
                    let acc = resp + 8 * w;
                    let old = c.ld_u64(acc);
                    c.st_u64(acc, old.wrapping_add(mix64(v ^ r.key)));
                }
                Op::Transfer { dst, amount } => {
                    c.mutex_lock(m);
                    let v = c.ld_u64(cell);
                    c.st_u64(cell, v.wrapping_sub(amount));
                    c.mutex_unlock(m);
                    let dli = key_map[dst as usize];
                    if dli != u32::MAX {
                        // Local credit: apply immediately.
                        let dcell = store + 8 * dli as usize;
                        let dm = stripes[dli as usize % stripes.len()];
                        c.mutex_lock(dm);
                        let v = c.ld_u64(dcell);
                        c.st_u64(dcell, v.wrapping_add(amount));
                        c.mutex_unlock(dm);
                    } else {
                        // Foreign credit: queue for the epoch rendezvous.
                        c.mutex_lock(outbox_m);
                        let n = c.ld_u64(outbox) as usize;
                        c.st_u64(outbox + 8 + 16 * n, dst);
                        c.st_u64(outbox + 16 + 16 * n, amount);
                        c.st_u64(outbox, n as u64 + 1);
                        c.mutex_unlock(outbox_m);
                    }
                }
            }
            c.fetch_add_u64(ctrl, 1);
        }
        c.barrier_wait(end_b);
    }
}

/// The registry workload: the server with every key in one root domain.
pub struct DmtServer;

impl Workload for DmtServer {
    fn name(&self) -> &'static str {
        "dmt_server"
    }

    fn suite(&self) -> &'static str {
        "server"
    }

    fn heap_pages(&self, p: &Params) -> usize {
        let spec = ServerSpec::of(p);
        DomainServer::heap_pages(&spec, spec.keys, p.threads.max(1))
    }

    fn prepare(&self, rt: &mut dyn Runtime, p: &Params) -> Prepared {
        let spec = ServerSpec::of(p);
        let plan = DomainPlan::build(&spec, 1, &|_| 0).remove(0);
        let expect = spec.expected_store();
        let total = spec.requests as u64;
        let (job, srv) =
            DomainServer::prepare(rt, &spec, &plan, p.threads.max(1), Arc::new(LocalExchange));
        let validate = Box::new(move |rt: &dyn Runtime| {
            let store_ok = srv
                .final_kv(rt)
                .iter()
                .all(|&(k, v)| v == expect[k as usize]);
            let processed = srv.processed(rt);
            Validation {
                output_hash: srv.output_hash(rt),
                matches_reference: store_ok && processed == total,
            }
        });
        Prepared { job, validate }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_codec_roundtrips() {
        let spec = ServerSpec::of(&Params::default());
        for r in spec.request_stream() {
            assert_eq!(decode_request(encode_request(&r)), r);
            assert_ne!(encode_request(&r) >> 62, 3, "collides with control");
        }
    }

    #[test]
    fn stream_is_a_pure_function_of_the_spec() {
        let spec = ServerSpec::of(&Params::new(4, 2, 99));
        assert_eq!(spec.request_stream(), spec.request_stream());
        assert_eq!(spec.expected_store(), spec.expected_store());
        let other = ServerSpec::of(&Params::new(4, 2, 100));
        assert_ne!(spec.request_stream(), other.request_stream());
    }

    #[test]
    fn plans_partition_keys_and_requests_exactly() {
        let spec = ServerSpec::of(&Params::default());
        let plans = DomainPlan::build(&spec, 4, &|k| (k % 4) as usize);
        let keys: usize = plans.iter().map(|p| p.keys.len()).sum();
        let reqs: usize = plans
            .iter()
            .flat_map(|p| p.epochs.iter())
            .map(Vec::len)
            .sum();
        assert_eq!(keys, spec.keys);
        assert_eq!(reqs, spec.requests);
        for p in &plans {
            assert!(p.keys.windows(2).all(|w| w[0] < w[1]), "keys not sorted");
            assert_eq!(p.epochs.len(), spec.epochs);
        }
    }

    #[test]
    fn transfers_conserve_the_store_total() {
        // Wrapping sum over the whole store is invariant under transfers:
        // the expected store's total equals initial total plus all Adds.
        let spec = ServerSpec::of(&Params::default());
        let add_total: u64 = spec
            .request_stream()
            .iter()
            .filter_map(|r| match r.op {
                Op::Add { delta } => Some(delta),
                _ => None,
            })
            .fold(0u64, |a, d| a.wrapping_add(d));
        let initial: u64 = spec
            .initial_store()
            .iter()
            .fold(0u64, |a, &v| a.wrapping_add(v));
        let expected: u64 = spec
            .expected_store()
            .iter()
            .fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(expected, initial.wrapping_add(add_total));
    }
}
