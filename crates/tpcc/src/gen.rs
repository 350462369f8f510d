//! Workload generation: the TPC-C transaction mix with the paper's
//! percentages and the spec's skewed (NURand) key distributions.

use crate::scale::TpccScale;
use crate::txn::{OrderLineReq, Transaction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const C_CUSTOMER: u32 = 259;
const C_ITEM: u32 = 7911;
/// The most lines a NewOrder carries (the spec's 5–15): the generator's
/// largest request.
pub(crate) const MAX_LINES: u32 = 15;

/// Deterministic TPC-C transaction generator.
///
/// The mix follows the paper (§IV-A): NewOrder 45 %, Payment 43 %,
/// Delivery 4 %, OrderStatus 4 %, StockLevel 4 %. Cross-partition traffic
/// follows the spec: 1 % of NewOrder lines are supplied by a remote
/// warehouse (≈10 % multi-partition NewOrders at 10 lines average) and
/// 15 % of Payments are for a customer of a remote warehouse.
#[derive(Debug, Clone)]
pub struct TpccGen {
    scale: TpccScale,
    warehouses: u16,
    rng: SmallRng,
    /// Force every access to the home warehouse (the paper's "Local Tpcc"
    /// workload in Fig. 4).
    pub local_only: bool,
    /// Per-line remote-supply probability for NewOrder, percent.
    pub remote_line_pct: u32,
    /// Remote-customer probability for Payment, percent.
    pub remote_payment_pct: u32,
}

impl TpccGen {
    /// Creates a generator for a deployment of `warehouses` warehouses.
    pub fn new(scale: TpccScale, warehouses: u16, seed: u64) -> Self {
        TpccGen {
            scale,
            warehouses,
            rng: SmallRng::seed_from_u64(seed),
            local_only: false,
            remote_line_pct: 1,
            remote_payment_pct: 15,
        }
    }

    /// TPC-C NURand: non-uniform random over `[x, y]`.
    fn nurand(&mut self, a: u32, c: u32, x: u32, y: u32) -> u32 {
        let r1 = self.rng.gen_range(0..=a);
        let r2 = self.rng.gen_range(x..=y);
        (((r1 | r2) + c) % (y - x + 1)) + x
    }

    fn customer(&mut self) -> u32 {
        self.nurand(1023, C_CUSTOMER, 1, self.scale.customers)
    }

    fn item(&mut self) -> u32 {
        self.nurand(8191, C_ITEM, 1, self.scale.items)
    }

    fn district(&mut self) -> u8 {
        self.rng.gen_range(1..=self.scale.districts)
    }

    fn remote_warehouse(&mut self, home: u16) -> u16 {
        if self.warehouses <= 1 {
            return home;
        }
        loop {
            let w = self.rng.gen_range(1..=self.warehouses);
            if w != home {
                return w;
            }
        }
    }

    /// Draws the next transaction of the mix for the given home warehouse.
    pub fn next(&mut self, home: u16) -> Transaction {
        let roll = self.rng.gen_range(0u32..100);
        if roll < 45 {
            self.new_order(home)
        } else if roll < 88 {
            self.payment(home)
        } else if roll < 92 {
            self.delivery(home)
        } else if roll < 96 {
            self.order_status(home)
        } else {
            self.stock_level(home)
        }
    }

    /// A NewOrder with the spec's line distribution.
    pub fn new_order(&mut self, home: u16) -> Transaction {
        let n = self.rng.gen_range(5..=MAX_LINES);
        let lines = (0..n)
            .map(|_| {
                let remote = !self.local_only
                    && self.warehouses > 1
                    && self.rng.gen_range(0u32..100) < self.remote_line_pct;
                OrderLineReq {
                    i_id: self.item(),
                    supply_w: if remote {
                        self.remote_warehouse(home)
                    } else {
                        home
                    },
                    qty: self.rng.gen_range(1..=10),
                }
            })
            .collect();
        Transaction::NewOrder {
            w: home,
            d: self.district(),
            c: self.customer(),
            lines,
        }
    }

    /// A NewOrder that touches **exactly** `k` partitions (the modified
    /// workload of Fig. 6): one line per remote partition, the rest local.
    pub fn new_order_spanning(&mut self, home: u16, k: u16) -> Transaction {
        assert!(k >= 1 && k <= self.warehouses);
        let n = self.rng.gen_range(5..=MAX_LINES).max(k as u32) as usize;
        let mut remotes: Vec<u16> = (1..=self.warehouses).filter(|&w| w != home).collect();
        remotes.truncate(k as usize - 1);
        let lines = (0..n)
            .map(|i| OrderLineReq {
                i_id: self.item(),
                supply_w: if i < remotes.len() { remotes[i] } else { home },
                qty: self.rng.gen_range(1..=10),
            })
            .collect();
        Transaction::NewOrder {
            w: home,
            d: self.district(),
            c: self.customer(),
            lines,
        }
    }

    /// A Payment (15 % remote customer).
    pub fn payment(&mut self, home: u16) -> Transaction {
        let remote = !self.local_only
            && self.warehouses > 1
            && self.rng.gen_range(0u32..100) < self.remote_payment_pct;
        let c_w = if remote {
            self.remote_warehouse(home)
        } else {
            home
        };
        Transaction::Payment {
            w: home,
            d: self.district(),
            c_w,
            c_d: self.district(),
            c: self.customer(),
            amount: self.rng.gen_range(100..=500_000),
        }
    }

    /// An OrderStatus for a random customer.
    pub fn order_status(&mut self, home: u16) -> Transaction {
        Transaction::OrderStatus {
            w: home,
            d: self.district(),
            c: self.customer(),
        }
    }

    /// A Delivery.
    pub fn delivery(&mut self, home: u16) -> Transaction {
        Transaction::Delivery {
            w: home,
            carrier: self.rng.gen_range(1..=10),
        }
    }

    /// A StockLevel.
    pub fn stock_level(&mut self, home: u16) -> Transaction {
        Transaction::StockLevel {
            w: home,
            d: self.district(),
            threshold: self.rng.gen_range(10..=20),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen() -> TpccGen {
        TpccGen::new(TpccScale::bench(), 8, 7)
    }

    #[test]
    fn mix_matches_paper_percentages() {
        let mut g = gen();
        let mut counts = [0usize; 5];
        for _ in 0..20_000 {
            match g.next(1) {
                Transaction::NewOrder { .. } => counts[0] += 1,
                Transaction::Payment { .. } => counts[1] += 1,
                Transaction::Delivery { .. } => counts[2] += 1,
                Transaction::OrderStatus { .. } => counts[3] += 1,
                Transaction::StockLevel { .. } => counts[4] += 1,
            }
        }
        let pct = |c: usize| c as f64 / 200.0;
        assert!(
            (pct(counts[0]) - 45.0).abs() < 2.0,
            "NewOrder {}",
            pct(counts[0])
        );
        assert!(
            (pct(counts[1]) - 43.0).abs() < 2.0,
            "Payment {}",
            pct(counts[1])
        );
        for &c in &counts[2..] {
            assert!((pct(c) - 4.0).abs() < 1.0);
        }
    }

    #[test]
    fn about_ten_percent_of_new_orders_are_multi_partition() {
        let mut g = gen();
        let multi = (0..20_000)
            .filter(|_| g.new_order(1).is_multi_partition())
            .count();
        let pct = multi as f64 / 200.0;
        assert!(
            (5.0..18.0).contains(&pct),
            "multi-partition NewOrders: {pct}%"
        );
    }

    #[test]
    fn local_only_never_crosses_partitions() {
        let mut g = gen();
        g.local_only = true;
        for _ in 0..5_000 {
            assert!(!g.next(3).is_multi_partition());
        }
    }

    #[test]
    fn spanning_touches_exactly_k() {
        let mut g = gen();
        for k in 1..=4 {
            let t = g.new_order_spanning(2, k);
            assert_eq!(t.warehouses().len(), k as usize);
        }
    }

    #[test]
    fn keys_stay_in_range() {
        let mut g = gen();
        for _ in 0..5_000 {
            if let Transaction::NewOrder { d, c, lines, .. } = g.new_order(1) {
                assert!((1..=TpccScale::bench().districts).contains(&d));
                assert!((1..=TpccScale::bench().customers).contains(&c));
                for l in lines {
                    assert!((1..=TpccScale::bench().items).contains(&l.i_id));
                    assert!((1..=8).contains(&l.supply_w));
                    assert!((1..=10).contains(&l.qty));
                }
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = gen();
        let mut b = gen();
        for _ in 0..100 {
            assert_eq!(a.next(1), b.next(1));
        }
    }
}
