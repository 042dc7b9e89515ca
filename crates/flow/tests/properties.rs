//! Property-based tests: max-flow/min-cut duality on random networks,
//! parametric-reuse equivalence, and exactness of the rational
//! arithmetic.

use lhcds_flow::{Dinic, ParametricNetwork, Ratio};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Net {
    n: usize,
    arcs: Vec<(u32, u32, i128)>,
}

fn arb_net() -> impl Strategy<Value = Net> {
    (3usize..10).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32, 0i128..50), 1..(n * n).min(40)).prop_map(
            move |raw| Net {
                n,
                arcs: raw.into_iter().filter(|&(u, v, _)| u != v).collect(),
            },
        )
    })
}

proptest! {
    /// Max-flow equals the capacity of the minimal source-side cut and
    /// of the maximal source-side cut, and the two sides are nested.
    #[test]
    fn maxflow_mincut_duality(net in arb_net()) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut d = Dinic::new(net.n);
        for &(u, v, c) in &net.arcs {
            d.add_edge(u, v, c);
        }
        let flow = d.max_flow(s, t);
        prop_assert!(flow >= 0);

        let lo = d.min_cut_source_side(s);
        let hi = d.max_cut_source_side(t);
        prop_assert!(lo[s as usize] && !lo[t as usize]);
        prop_assert!(hi[s as usize] && !hi[t as usize]);
        // nested
        for i in 0..net.n {
            prop_assert!(!lo[i] || hi[i]);
        }
        // both cuts have capacity exactly `flow`
        for side in [&lo, &hi] {
            let cut: i128 = net
                .arcs
                .iter()
                .filter(|&&(u, v, _)| side[u as usize] && !side[v as usize])
                .map(|&(_, _, c)| c)
                .sum();
            prop_assert_eq!(cut, flow);
        }
    }

    /// Flow conservation at interior nodes.
    #[test]
    fn conservation(net in arb_net()) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut d = Dinic::new(net.n);
        let ids: Vec<_> = net.arcs.iter().map(|&(u, v, c)| (u, v, c, d.add_edge(u, v, c))).collect();
        let flow = d.max_flow(s, t);
        let mut net_out = vec![0i128; net.n];
        for (u, v, c, id) in ids {
            let f = c - d.residual(id);
            prop_assert!(f >= 0 && f <= c);
            net_out[u as usize] += f;
            net_out[v as usize] -= f;
        }
        prop_assert_eq!(net_out[s as usize], flow);
        prop_assert_eq!(net_out[t as usize], -flow);
        for &x in &net_out[1..net.n - 1] {
            prop_assert_eq!(x, 0);
        }
    }

    /// A reused ParametricNetwork, driven through an arbitrary schedule
    /// of parametric capacities (monotone or not) and scale
    /// denominators, answers every solve with exactly the cut sides of
    /// a freshly built Dinic at the same capacities.
    #[test]
    fn parametric_reuse_equals_fresh_networks(
        net in arb_net(),
        schedule in prop::collection::vec(
            (prop::collection::vec(0i128..40, 8), 1i128..7),
            1..6,
        ),
    ) {
        let (s, t) = (0u32, (net.n - 1) as u32);
        let mut pn = ParametricNetwork::new(net.n, s, t);
        // static arcs: the random net's arcs as unit capacities
        for &(u, v, c) in &net.arcs {
            pn.add_static(u, v, c);
        }
        // parametric arcs: s→v and v→t for every interior node
        let mut param_ends: Vec<(u32, u32)> = Vec::new();
        for v in 1..(net.n as u32 - 1) {
            pn.add_parametric(s, v);
            param_ends.push((s, v));
            pn.add_parametric(v, t);
            param_ends.push((v, t));
        }
        for (caps_raw, den) in schedule {
            let scale = pn.scale_for(den);
            prop_assert_eq!(scale % den, 0);
            let caps: Vec<i128> = (0..pn.param_count())
                .map(|i| caps_raw[i % caps_raw.len()] * scale / den)
                .collect();
            pn.solve(scale, &caps);

            let mut d = Dinic::new(net.n);
            for &(u, v, c) in &net.arcs {
                d.add_edge(u, v, c * scale);
            }
            for (i, &(u, v)) in param_ends.iter().enumerate() {
                d.add_edge(u, v, caps[i]);
            }
            d.max_flow(s, t);
            prop_assert_eq!(pn.min_cut_source_side(), d.min_cut_source_side(s));
            prop_assert_eq!(pn.max_cut_source_side(), d.max_cut_source_side(t));
        }
    }

    /// Ratio ordering agrees with exact cross-multiplication computed
    /// in i128 on small operands.
    #[test]
    fn ratio_order_matches_reference(a in -500i128..500, b in 1i128..500, c in -500i128..500, d in 1i128..500) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        let reference = (a * d).cmp(&(c * b));
        prop_assert_eq!(x.cmp(&y), reference);
    }

    /// Field laws on small rationals (exact arithmetic).
    #[test]
    fn ratio_field_laws(a in -40i128..40, b in 1i128..20, c in -40i128..40, d in 1i128..20) {
        let x = Ratio::new(a, b);
        let y = Ratio::new(c, d);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!(x * y, y * x);
        prop_assert_eq!((x + y) - y, x);
        prop_assert_eq!(x - x, Ratio::zero());
        if c != 0 {
            prop_assert_eq!((x / y) * y, x);
        }
        // distributivity
        let z = Ratio::new(d, b);
        prop_assert_eq!(x * (y + z), x * y + x * z);
    }

    /// Huge-magnitude comparisons do not overflow (the continued-
    /// fraction path).
    #[test]
    fn ratio_order_no_overflow(a in 0i128..1_000_000_000_000_000_000, b in 1i128..1_000_000_000) {
        let big = Ratio::new(a.max(1) * 1_000_000_000, b);
        let small = Ratio::new(1, b);
        prop_assert!(big >= small);
        let sentinel = Ratio::new(i128::MAX / 2, 1);
        prop_assert!(sentinel > big);
        prop_assert!(-sentinel < small);
    }

    /// scale_to_int round-trips through exact division.
    #[test]
    fn scale_to_int_round_trip(num in -1000i128..1000, den in 1i128..60, mult in 1i128..50) {
        let r = Ratio::new(num, den);
        let scale = r.den() * mult;
        let scaled = r.scale_to_int(scale);
        prop_assert_eq!(Ratio::new(scaled, scale), r);
    }
}
