//! Fig. 5's throughput claim (§V-C2): on TPC-C, Heron outperforms
//! DynaStar's throughput by an order of magnitude. Runs the figure's quick
//! two-warehouse point, client counts included.

#[test]
fn heron_throughput_is_an_order_of_magnitude_above_dynastars() {
    let (heron, dynastar) = heron_bench::fig5_point(2, true);
    assert!(
        heron.tps >= 10.0 * dynastar.tps,
        "expected ≥ 10× throughput: Heron {} tps vs DynaStar {} tps",
        heron.tps,
        dynastar.tps
    );
}
