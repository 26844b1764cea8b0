//! Network-level weight packing: build each layer's
//! [`ull_tensor::PackedWeights`] once and reuse it across timesteps,
//! batches, forward calls and serving replicas.
//!
//! The weights of a converted SNN are fixed at conversion time, so their
//! packed layout ([`ull_tensor::packed`]) can be prepared once per network.
//! A [`PackedNet`] holds one pack per conv/linear node; the forward path
//! resolves it through a small process-wide cache keyed by a fingerprint of
//! the network's weights ([`net_fingerprint`]), so repeated forwards,
//! batch-parallel chunks and serving replicas holding clones of the same
//! network all share one pack.
//!
//! # Staleness
//!
//! Each [`SnnNetwork`] memoises the pack it resolved, so a forward over an
//! unchanged network returns the memo without reading a weight. The memo
//! is sound because weights change only through `&mut SnnNetwork` —
//! [`Tensor`](ull_tensor::Tensor) and [`Param`](ull_nn::Param) have no
//! interior mutability — and every `&mut` entry point that reaches a
//! weight ([`SnnNetwork::nodes_mut`], [`SnnNetwork::visit_params_mut`],
//! [`SnnNetwork::fold_amplitudes`]) clears it. Fault injection, a chaos
//! swap or a training step therefore sends the next forward to the
//! fingerprint: it covers every weight's bits and shape, so a mutated
//! network misses the cache and re-packs — a stale pack can never be used.
//! The cache keeps the most recently used [`CACHE_CAP`] networks and
//! evicts least-recently-used beyond that.
//!
//! Cache traffic is observable via the `snn.pack.builds` and
//! `snn.pack.hits` counters; steady-state hits allocate nothing (asserted
//! by `crates/snn/tests/alloc_free.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ull_nn::NodeId;
use ull_tensor::{packed_enabled, tensor_fingerprint, PackedWeights};

use crate::network::{SnnNetwork, SnnOp};

/// Networks retained by the process-wide pack cache (most recently used
/// first). Serving keeps a handful of replicas; 8 covers every deployment
/// in this workspace with room for swaps.
pub const CACHE_CAP: usize = 8;

/// Per-network packed weights: one [`PackedWeights`] per conv/linear node,
/// indexed by node id.
#[derive(Debug)]
pub struct PackedNet {
    fingerprint: u64,
    packs: Vec<Option<PackedWeights>>,
}

impl PackedNet {
    fn build(net: &SnnNetwork, fingerprint: u64) -> Self {
        let _span = ull_obs::span("snn.pack.build");
        let packs = net
            .nodes()
            .iter()
            .map(|node| match &node.op {
                SnnOp::Conv2d { weight, .. } => Some(PackedWeights::pack_conv(&weight.value)),
                SnnOp::Linear { weight, .. } => Some(PackedWeights::pack_rhs_t(&weight.value)),
                _ => None,
            })
            .collect();
        PackedNet { fingerprint, packs }
    }

    /// The pack for node `id`, if that node carries weights.
    pub fn node(&self, id: NodeId) -> Option<&PackedWeights> {
        self.packs.get(id).and_then(|p| p.as_ref())
    }

    /// Fingerprint of the network this pack was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of weighted (packed) layers.
    pub fn layer_count(&self) -> usize {
        self.packs.iter().filter(|p| p.is_some()).count()
    }

    /// Total bytes held by the packed buffers.
    pub fn packed_bytes(&self) -> usize {
        self.packs
            .iter()
            .flatten()
            .map(PackedWeights::packed_bytes)
            .sum()
    }
}

/// FNV-1a fingerprint of a network's weighted layers: folds each weighted
/// node's id and its weight tensor's shape + bit patterns. Any weight
/// mutation — or moving the same weights to a different node — changes the
/// value.
pub fn net_fingerprint(net: &SnnNetwork) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, node) in net.nodes().iter().enumerate() {
        let weight = match &node.op {
            SnnOp::Conv2d { weight, .. } | SnnOp::Linear { weight, .. } => weight,
            _ => continue,
        };
        for w in [i as u64, tensor_fingerprint(&weight.value)] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

static CACHE: Mutex<Vec<(u64, Arc<PackedNet>)>> = Mutex::new(Vec::new());

/// Bumped by [`clear_pack_cache`]: a memo filled under an older
/// generation counts as a miss, so clearing the cache forgets every memo.
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// A network's resolved pack and the cache generation it was resolved
/// under. Clones share the pack; equality ignores it.
#[derive(Default)]
pub(crate) struct PackMemo(Mutex<Option<(u64, Arc<PackedNet>)>>);

impl PackMemo {
    fn lock(&self) -> std::sync::MutexGuard<'_, Option<(u64, Arc<PackedNet>)>> {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Forgets the memoised pack; called by every `&mut` path to the
    /// weights.
    pub(crate) fn clear(&mut self) {
        *self
            .0
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
    }
}

impl Clone for PackMemo {
    fn clone(&self) -> Self {
        PackMemo(Mutex::new(self.lock().clone()))
    }
}

impl PartialEq for PackMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for PackMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackMemo").finish_non_exhaustive()
    }
}

/// Resolves the packed weights for `net`: `None` when packing is disabled
/// ([`ull_tensor::set_packed`] / `ULL_PACKED`), otherwise a shared
/// [`PackedNet`].
///
/// Called once per forward pass. A network that already resolved its pack
/// returns the memo: one short critical section, no weight read. Otherwise
/// the fingerprint scan reads every weight and the process-wide cache
/// returns the pack of any network with the same weights (so replicas
/// share one), building it on first sight; the result fills the memo.
/// Neither path allocates once the pack exists.
pub fn packed_for(net: &SnnNetwork) -> Option<Arc<PackedNet>> {
    if !packed_enabled() {
        return None;
    }
    if let Some((generation, pack)) = &*net.pack.lock() {
        if *generation == GENERATION.load(Ordering::Acquire) {
            ull_obs::counter_add("snn.pack.hits", 1);
            return Some(Arc::clone(pack));
        }
    }
    let fp = net_fingerprint(net);
    let mut cache = lock_cache();
    let generation = GENERATION.load(Ordering::Acquire);
    let pack = if let Some(pos) = cache.iter().position(|(k, _)| *k == fp) {
        // Move-to-front MRU; within capacity this never allocates.
        let entry = cache.remove(pos);
        let pack = Arc::clone(&entry.1);
        cache.insert(0, entry);
        ull_obs::counter_add("snn.pack.hits", 1);
        pack
    } else {
        // Build inside the lock so concurrent forwards over the same
        // network (serving replicas at startup) pack once, not once per
        // caller.
        let pack = Arc::new(PackedNet::build(net, fp));
        ull_obs::counter_add("snn.pack.builds", 1);
        cache.insert(0, (fp, Arc::clone(&pack)));
        cache.truncate(CACHE_CAP);
        pack
    };
    *net.pack.lock() = Some((generation, Arc::clone(&pack)));
    Some(pack)
}

/// Empties the process-wide pack cache and invalidates every network's
/// memoised pack. Only needed by tests that count pack builds; production
/// code lets LRU eviction manage the cache.
#[doc(hidden)]
pub fn clear_pack_cache() {
    let mut cache = lock_cache();
    cache.clear();
    GENERATION.fetch_add(1, Ordering::AcqRel);
}

fn lock_cache() -> std::sync::MutexGuard<'static, Vec<(u64, Arc<PackedNet>)>> {
    match CACHE.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl SnnNetwork {
    /// Builds (or re-resolves) this network's packed weights eagerly,
    /// warming the process-wide pack cache and this network's memo so the
    /// first inference call does not pay the packing cost. Serving calls
    /// this at replica build and after every weight swap; returns the pack
    /// for inspection, or `None` when packing is disabled.
    pub fn prepack(&self) -> Option<Arc<PackedNet>> {
        packed_for(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpikeSpec;
    use ull_nn::NetworkBuilder;
    use ull_tensor::set_packed;

    fn test_net(seed: u64) -> SnnNetwork {
        let mut b = NetworkBuilder::new(2, 8, seed);
        b.conv2d(4, 3, 1, 1);
        b.threshold_relu(0.7);
        b.flatten();
        b.linear(5);
        let dnn = b.build();
        SnnNetwork::from_network(&dnn, &[SpikeSpec::identity(0.7)]).unwrap()
    }

    #[test]
    fn fingerprint_is_stable_and_weight_sensitive() {
        let net = test_net(1);
        let fp = net_fingerprint(&net);
        assert_eq!(fp, net_fingerprint(&net));
        assert_eq!(fp, net_fingerprint(&net.clone()), "clones share packs");
        let mut mutated = net.clone();
        for node in mutated.nodes_mut() {
            if let SnnOp::Linear { weight, .. } = &mut node.op {
                weight.value.data_mut()[0] += 1.0;
            }
        }
        assert_ne!(fp, net_fingerprint(&mutated));
    }

    #[test]
    fn cache_shares_packs_and_rebuilds_on_mutation() {
        let _guard = ull_tensor::packed::packed_lock();
        set_packed(Some(true));
        clear_pack_cache();
        let net = test_net(2);
        let a = packed_for(&net).expect("enabled");
        let b = packed_for(&net.clone()).expect("enabled");
        assert!(Arc::ptr_eq(&a, &b), "same weights resolve to one pack");
        assert_eq!(a.layer_count(), 2);
        assert!(a.packed_bytes() > 0);

        let mut mutated = net.clone();
        for node in mutated.nodes_mut() {
            if let SnnOp::Conv2d { weight, .. } = &mut node.op {
                weight.value.data_mut()[0] += 0.5;
            }
        }
        let c = packed_for(&mutated).expect("enabled");
        assert!(!Arc::ptr_eq(&a, &c), "mutated weights force a re-pack");
        assert_ne!(a.fingerprint(), c.fingerprint());
        set_packed(None);
        clear_pack_cache();
    }

    #[test]
    fn disabled_packing_resolves_to_none() {
        let _guard = ull_tensor::packed::packed_lock();
        set_packed(Some(false));
        assert!(packed_for(&test_net(3)).is_none());
        assert!(test_net(3).prepack().is_none());
        set_packed(None);
    }

    #[test]
    fn clones_share_the_memoised_pack() {
        let _guard = ull_tensor::packed::packed_lock();
        set_packed(Some(true));
        clear_pack_cache();
        let net = test_net(4);
        let a = net.prepack().expect("enabled");
        let twin = net.clone();
        // Evict `net` from the process-wide cache: only the memo (shared
        // by the clone) can still return the original pack.
        for seed in 100..100 + CACHE_CAP as u64 {
            packed_for(&test_net(seed));
        }
        assert!(Arc::ptr_eq(&a, &packed_for(&net).expect("enabled")));
        assert!(Arc::ptr_eq(&a, &packed_for(&twin).expect("enabled")));
        // Clearing the cache forgets every memo.
        clear_pack_cache();
        assert!(!Arc::ptr_eq(&a, &packed_for(&net).expect("enabled")));
        set_packed(None);
        clear_pack_cache();
    }

    /// Flips the sign bit of every element of `t`.
    fn flip_sign_bits(t: &mut ull_tensor::Tensor) {
        for v in t.data_mut() {
            *v = f32::from_bits(v.to_bits() ^ (1 << 31));
        }
    }

    #[test]
    fn every_mut_path_to_the_weights_drops_the_memo() {
        let _guard = ull_tensor::packed::packed_lock();
        let _cutoff = crate::dispatch::cutoff_lock();
        // Keep these forwards out of tests that reconcile obs counters.
        let _obs = ull_obs::test_lock();
        set_packed(Some(true));
        // Dense everywhere, so every step reads the packed weights.
        crate::set_sparse_cutoff(Some(-1.0));
        let x = ull_tensor::init::normal(
            &[2, 2, 8, 8],
            0.0,
            1.0,
            &mut ull_tensor::init::seeded_rng(6),
        );
        type Mutation = fn(&mut SnnNetwork);
        let mutations: [(&str, Mutation); 3] = [
            ("nodes_mut", |net| {
                for node in net.nodes_mut() {
                    if let SnnOp::Linear { weight, .. } = &mut node.op {
                        flip_sign_bits(&mut weight.value);
                    }
                }
            }),
            ("visit_params_mut", |net| {
                net.visit_params_mut(|p| {
                    if p.value.shape().len() == 2 {
                        flip_sign_bits(&mut p.value);
                    }
                })
            }),
            ("fold_amplitudes", |net| net.fold_amplitudes().unwrap()),
        ];
        for (path, mutate) in mutations {
            let mut net = test_net(5);
            let before = net.forward(&x, 3).logits; // fills the memo
            let fp = net_fingerprint(&net);
            mutate(&mut net);
            assert_ne!(fp, net_fingerprint(&net), "{path} changed no weight");
            let after = net.forward(&x, 3).logits;
            let fresh: SnnNetwork =
                serde_json::from_str(&serde_json::to_string(&net).unwrap()).unwrap();
            let want = fresh.forward(&x, 3).logits;
            let bits =
                |t: &ull_tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&after), bits(&want), "{path} left a stale pack in use");
            if path != "fold_amplitudes" {
                // Folding preserves the output up to rounding; a sign flip
                // must show.
                assert_ne!(
                    bits(&before),
                    bits(&after),
                    "{path}: the flip must reach the logits"
                );
            }
        }
        crate::set_sparse_cutoff(None);
        set_packed(None);
    }

    /// Length and FNV-1a hash of `test_net(9)`'s JSON before networks
    /// memoised their packs: the encoding must never change.
    const GOLDEN_JSON: (usize, u64) = (39662, 0xe5cb_0ea6_ca9c_e3ac);

    /// FNV-1a over bytes, for pinning encodings.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn json_encoding_is_unchanged_by_the_memo() {
        let net = test_net(9);
        net.prepack();
        let json = serde_json::to_string(&net).unwrap();
        assert!(json.starts_with(r#"{"nodes":["#), "{}", &json[..40]);
        assert_eq!((json.len(), fnv1a(json.as_bytes())), GOLDEN_JSON);
        let back: SnnNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(back, net);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let _guard = ull_tensor::packed::packed_lock();
        set_packed(Some(true));
        clear_pack_cache();
        let nets: Vec<SnnNetwork> = (0..CACHE_CAP as u64 + 2).map(test_net).collect();
        for net in &nets {
            packed_for(net);
        }
        // The two oldest fell out; re-resolving them rebuilds.
        let oldest = packed_for(&nets[0]).expect("enabled");
        assert_eq!(oldest.fingerprint(), net_fingerprint(&nets[0]));
        set_packed(None);
        clear_pack_cache();
    }
}
