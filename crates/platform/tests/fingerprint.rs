//! `Platform` memoizes two derived values: its fingerprint and its
//! power order.
//!
//! Every tenant journal on disk pins the fingerprint. These tests hold
//! that memo to the byte stream it caches: an independent FNV-1a
//! re-implementation built only from the public accessors, run over
//! every generator, before and after `clone()`; plus hex literals that
//! fail loudly if the stream changes. The power order is held the same
//! way to an independent sort, and neither memo may affect equality.

use adept_platform::generator::{
    grid5000, heterogenized_cluster, homogeneous_cluster, homogeneous_cluster_with_bandwidth,
    lyon_cluster, multi_site_grid, uniform_random_cluster,
};
use adept_platform::{
    BackgroundLoad, CapacityProbe, MbitRate, MflopRate, Network, NodeId, Platform, Seconds,
};

/// 64-bit FNV-1a over the documented stream: node count, then per node
/// (name length, name bytes, power bits, site id), site count, per site
/// (name length, name bytes), then the network tag and its values — every
/// integer and float as 8 little-endian bytes.
fn reference_fingerprint(p: &Platform) -> u64 {
    fn int(stream: &mut Vec<u8>, v: u64) {
        stream.extend_from_slice(&v.to_le_bytes());
    }
    fn float(stream: &mut Vec<u8>, v: f64) {
        int(stream, v.to_bits());
    }
    fn text(stream: &mut Vec<u8>, s: &str) {
        int(stream, s.len() as u64);
        stream.extend_from_slice(s.as_bytes());
    }
    let mut stream = Vec::new();
    int(&mut stream, p.nodes().len() as u64);
    for n in p.nodes() {
        text(&mut stream, &n.name);
        float(&mut stream, n.power.value());
        int(&mut stream, u64::from(n.site.0));
    }
    int(&mut stream, p.sites().len() as u64);
    for s in p.sites() {
        text(&mut stream, &s.name);
    }
    match p.network() {
        Network::Homogeneous { bandwidth, latency } => {
            int(&mut stream, 1);
            float(&mut stream, bandwidth.value());
            float(&mut stream, latency.value());
        }
        Network::PerSitePair {
            intra,
            inter,
            latency,
        } => {
            int(&mut stream, 2);
            int(&mut stream, intra.len() as u64);
            for b in intra {
                float(&mut stream, b.value());
            }
            float(&mut stream, inter.value());
            float(&mut stream, latency.value());
        }
    }
    stream.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One platform from every generator, plus a `take_most_powerful`
/// restriction of a heterogeneous and a multi-site one.
fn every_generator() -> Vec<(&'static str, Platform)> {
    let hetero = heterogenized_cluster(
        "orsay",
        40,
        MflopRate(1000.0),
        BackgroundLoad::default(),
        CapacityProbe::with_noise(0.02, 5),
        7,
    );
    let grid = multi_site_grid(
        3,
        12,
        MflopRate(900.0),
        MbitRate(1000.0),
        MbitRate(100.0),
        11,
    );
    vec![
        (
            "homogeneous_cluster",
            homogeneous_cluster("c", 16, MflopRate(500.0)),
        ),
        (
            "homogeneous_cluster_with_bandwidth",
            homogeneous_cluster_with_bandwidth("c", 16, MflopRate(500.0), MbitRate(10.0)),
        ),
        ("lyon_cluster", lyon_cluster(8)),
        (
            "heterogenized_cluster/take_most_powerful",
            hetero.take_most_powerful(10).unwrap(),
        ),
        ("heterogenized_cluster", hetero),
        (
            "uniform_random_cluster",
            uniform_random_cluster("u", 64, MflopRate(100.0), MflopRate(900.0), 3),
        ),
        (
            "multi_site_grid/take_most_powerful",
            grid.take_most_powerful(20).unwrap(),
        ),
        ("multi_site_grid", grid),
        ("grid5000", grid5000(30, 10, 2).0),
    ]
}

#[test]
fn memoized_fingerprint_matches_the_reference_byte_stream() {
    for (name, p) in every_generator() {
        let expected = reference_fingerprint(&p);
        // A clone taken before the memo is filled hashes on its own.
        let fresh_clone = p.clone();
        assert_eq!(p.fingerprint(), expected, "{name}: first call");
        assert_eq!(p.fingerprint(), expected, "{name}: memoized call");
        assert_eq!(fresh_clone.fingerprint(), expected, "{name}: clone before");
        // A clone taken after carries the filled memo along.
        assert_eq!(p.clone().fingerprint(), expected, "{name}: clone after");
    }
}

/// Node ids by descending power, ties by ascending id, sorted with a
/// plain comparator on the public accessors.
fn reference_power_order(p: &Platform) -> Vec<NodeId> {
    let mut ids: Vec<NodeId> = p.nodes().iter().map(|n| n.id).collect();
    ids.sort_by(|&a, &b| {
        p.power(b)
            .value()
            .partial_cmp(&p.power(a).value())
            .unwrap()
            .then(a.cmp(&b))
    });
    ids
}

#[test]
fn memoized_power_order_matches_an_independent_sort() {
    // Ulp-adjacent powers, ascending with the id, and exact ties.
    let mut b = Platform::builder(Network::homogeneous(MbitRate(100.0)));
    let s = b.add_site("x");
    for i in 0..12u64 {
        let w = f64::from_bits(400.0f64.to_bits() + i / 3);
        b.add_node(format!("x-{i}"), MflopRate(w), s).unwrap();
    }
    let ulps = b.build().unwrap();
    for (name, p) in every_generator().into_iter().chain([("ulps", ulps)]) {
        let expected = reference_power_order(&p);
        let fresh_clone = p.clone();
        assert_eq!(p.ids_by_power_desc(), expected, "{name}: first call");
        assert_eq!(p.ids_by_power_desc(), expected, "{name}: memoized call");
        assert_eq!(
            fresh_clone.ids_by_power_desc(),
            expected,
            "{name}: clone before"
        );
        assert_eq!(
            p.clone().ids_by_power_desc(),
            expected,
            "{name}: clone after"
        );
    }
}

#[test]
fn equality_ignores_the_power_order_memo() {
    for (name, p) in every_generator() {
        let filled = p.clone();
        filled.ids_by_power_desc();
        assert_eq!(filled, p, "{name}: filled == empty");
        assert_eq!(p, filled, "{name}: empty == filled");
    }
}

#[test]
fn equality_ignores_the_fingerprint_memo() {
    for (name, p) in every_generator() {
        let filled = p.clone();
        filled.fingerprint();
        assert_eq!(filled, p, "{name}: filled == empty");
        assert_eq!(p, filled, "{name}: empty == filled");
    }
    let a = uniform_random_cluster("u", 8, MflopRate(100.0), MflopRate(900.0), 1);
    let b = uniform_random_cluster("u", 8, MflopRate(100.0), MflopRate(900.0), 2);
    a.fingerprint();
    b.fingerprint();
    assert_ne!(a, b, "different platforms stay unequal");
}

#[test]
fn fingerprints_are_pinned() {
    // Every tenant journal records this value; a changed byte stream
    // turns every resume into `journal-mismatch`.
    let mut b = Platform::builder(Network::homogeneous(MbitRate(1000.0)));
    let s = b.add_site("lyon");
    b.add_node("a", MflopRate(100.0), s).unwrap();
    b.add_node("b", MflopRate(300.0), s).unwrap();
    b.add_node("c", MflopRate(200.0), s).unwrap();
    let homogeneous = b.build().unwrap();
    assert_eq!(
        format!("{:016x}", homogeneous.fingerprint()),
        "c0acbbadb4c58d18"
    );

    let mut b = Platform::builder(Network::PerSitePair {
        intra: vec![MbitRate(1000.0), MbitRate(500.0)],
        inter: MbitRate(100.0),
        latency: Seconds(0.001),
    });
    let lyon = b.add_site("lyon");
    let orsay = b.add_site("orsay");
    b.add_node("l1", MflopRate(400.0), lyon).unwrap();
    b.add_node("o1", MflopRate(250.5), orsay).unwrap();
    let per_site = b.build().unwrap();
    assert_eq!(
        format!("{:016x}", per_site.fingerprint()),
        "ed7633d25f4164a9"
    );
}
