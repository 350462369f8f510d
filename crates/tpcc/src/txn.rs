//! TPC-C transactions and their wire encoding.

/// One order line of a NewOrder transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderLineReq {
    /// Ordered item.
    pub i_id: u32,
    /// Supplying warehouse (1 % are remote per the spec).
    pub supply_w: u16,
    /// Quantity (1–10).
    pub qty: u8,
}

/// The five TPC-C transaction types, with the paper's mix:
/// NewOrder 45 %, Payment 43 %, Delivery 4 %, OrderStatus 4 %,
/// StockLevel 4 % (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transaction {
    /// Enter a new customer order (5–15 lines; possibly remote supply).
    NewOrder {
        /// Home warehouse.
        w: u16,
        /// District.
        d: u8,
        /// Ordering customer.
        c: u32,
        /// Order lines.
        lines: Vec<OrderLineReq>,
    },
    /// Record a customer payment (15 % pay at a remote warehouse).
    Payment {
        /// Home warehouse (where the payment is taken).
        w: u16,
        /// Home district.
        d: u8,
        /// Customer's warehouse.
        c_w: u16,
        /// Customer's district.
        c_d: u8,
        /// Customer id.
        c: u32,
        /// Amount in cents.
        amount: u32,
    },
    /// Read a customer's most recent order (local, read-only).
    OrderStatus {
        /// Warehouse.
        w: u16,
        /// District.
        d: u8,
        /// Customer id.
        c: u32,
    },
    /// Deliver the oldest undelivered order of every district (local).
    Delivery {
        /// Warehouse.
        w: u16,
        /// Carrier id (1–10).
        carrier: u8,
    },
    /// Count recently-sold items whose stock is below a threshold (local,
    /// heavy: touches many serialized Stock rows — §V-D2).
    StockLevel {
        /// Warehouse.
        w: u16,
        /// District.
        d: u8,
        /// Stock threshold (10–20).
        threshold: u32,
    },
}

const T_NEW_ORDER: u8 = 1;
const T_PAYMENT: u8 = 2;
const T_ORDER_STATUS: u8 = 3;
const T_DELIVERY: u8 = 4;
const T_STOCK_LEVEL: u8 = 5;

impl Transaction {
    /// Serializes the transaction for multicast.
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(32);
        match self {
            Transaction::NewOrder { w, d, c, lines } => {
                b.push(T_NEW_ORDER);
                b.extend_from_slice(&w.to_le_bytes());
                b.push(*d);
                b.extend_from_slice(&c.to_le_bytes());
                b.push(lines.len() as u8);
                for l in lines {
                    b.extend_from_slice(&l.i_id.to_le_bytes());
                    b.extend_from_slice(&l.supply_w.to_le_bytes());
                    b.push(l.qty);
                }
            }
            Transaction::Payment {
                w,
                d,
                c_w,
                c_d,
                c,
                amount,
            } => {
                b.push(T_PAYMENT);
                b.extend_from_slice(&w.to_le_bytes());
                b.push(*d);
                b.extend_from_slice(&c_w.to_le_bytes());
                b.push(*c_d);
                b.extend_from_slice(&c.to_le_bytes());
                b.extend_from_slice(&amount.to_le_bytes());
            }
            Transaction::OrderStatus { w, d, c } => {
                b.push(T_ORDER_STATUS);
                b.extend_from_slice(&w.to_le_bytes());
                b.push(*d);
                b.extend_from_slice(&c.to_le_bytes());
            }
            Transaction::Delivery { w, carrier } => {
                b.push(T_DELIVERY);
                b.extend_from_slice(&w.to_le_bytes());
                b.push(*carrier);
            }
            Transaction::StockLevel { w, d, threshold } => {
                b.push(T_STOCK_LEVEL);
                b.extend_from_slice(&w.to_le_bytes());
                b.push(*d);
                b.extend_from_slice(&threshold.to_le_bytes());
            }
        }
        b
    }

    /// Parses a transaction from its wire form.
    ///
    /// Returns `None` on malformed input.
    pub fn decode(buf: &[u8]) -> Option<Transaction> {
        let u16_at = |i: usize| Some(u16::from_le_bytes(buf.get(i..i + 2)?.try_into().ok()?));
        let u32_at = |i: usize| Some(u32::from_le_bytes(buf.get(i..i + 4)?.try_into().ok()?));
        match *buf.first()? {
            T_NEW_ORDER => {
                let w = u16_at(1)?;
                let d = *buf.get(3)?;
                let c = u32_at(4)?;
                let n = *buf.get(8)? as usize;
                let mut lines = Vec::with_capacity(n);
                for k in 0..n {
                    let off = 9 + k * 7;
                    lines.push(OrderLineReq {
                        i_id: u32_at(off)?,
                        supply_w: u16_at(off + 4)?,
                        qty: *buf.get(off + 6)?,
                    });
                }
                Some(Transaction::NewOrder { w, d, c, lines })
            }
            T_PAYMENT => Some(Transaction::Payment {
                w: u16_at(1)?,
                d: *buf.get(3)?,
                c_w: u16_at(4)?,
                c_d: *buf.get(6)?,
                c: u32_at(7)?,
                amount: u32_at(11)?,
            }),
            T_ORDER_STATUS => Some(Transaction::OrderStatus {
                w: u16_at(1)?,
                d: *buf.get(3)?,
                c: u32_at(4)?,
            }),
            T_DELIVERY => Some(Transaction::Delivery {
                w: u16_at(1)?,
                carrier: *buf.get(3)?,
            }),
            T_STOCK_LEVEL => Some(Transaction::StockLevel {
                w: u16_at(1)?,
                d: *buf.get(3)?,
                threshold: u32_at(4)?,
            }),
            _ => None,
        }
    }

    /// The home warehouse.
    pub fn home(&self) -> u16 {
        match self {
            Transaction::NewOrder { w, .. }
            | Transaction::Payment { w, .. }
            | Transaction::OrderStatus { w, .. }
            | Transaction::Delivery { w, .. }
            | Transaction::StockLevel { w, .. } => *w,
        }
    }

    /// All warehouses (= partitions) the transaction touches, sorted and
    /// deduplicated.
    pub fn warehouses(&self) -> Vec<u16> {
        let mut ws = vec![self.home()];
        match self {
            Transaction::NewOrder { lines, .. } => {
                ws.extend(lines.iter().map(|l| l.supply_w));
            }
            Transaction::Payment { c_w, .. } => ws.push(*c_w),
            _ => {}
        }
        ws.sort_unstable();
        ws.dedup();
        ws
    }

    /// Whether the transaction spans more than one partition.
    pub fn is_multi_partition(&self) -> bool {
        self.warehouses().len() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(t: Transaction) {
        assert_eq!(Transaction::decode(&t.encode()), Some(t));
    }

    #[test]
    fn all_types_round_trip() {
        round_trip(Transaction::NewOrder {
            w: 3,
            d: 7,
            c: 1234,
            lines: vec![
                OrderLineReq {
                    i_id: 99,
                    supply_w: 3,
                    qty: 5,
                },
                OrderLineReq {
                    i_id: 12,
                    supply_w: 8,
                    qty: 10,
                },
            ],
        });
        round_trip(Transaction::Payment {
            w: 1,
            d: 2,
            c_w: 4,
            c_d: 5,
            c: 777,
            amount: 12_345,
        });
        round_trip(Transaction::OrderStatus { w: 1, d: 2, c: 3 });
        round_trip(Transaction::Delivery { w: 1, carrier: 9 });
        round_trip(Transaction::StockLevel {
            w: 1,
            d: 2,
            threshold: 15,
        });
    }

    #[test]
    fn warehouses_dedup_and_sort() {
        let t = Transaction::NewOrder {
            w: 5,
            d: 1,
            c: 1,
            lines: vec![
                OrderLineReq {
                    i_id: 1,
                    supply_w: 2,
                    qty: 1,
                },
                OrderLineReq {
                    i_id: 2,
                    supply_w: 5,
                    qty: 1,
                },
                OrderLineReq {
                    i_id: 3,
                    supply_w: 2,
                    qty: 1,
                },
            ],
        };
        assert_eq!(t.warehouses(), vec![2, 5]);
        assert!(t.is_multi_partition());
        assert!(!Transaction::Delivery { w: 1, carrier: 1 }.is_multi_partition());
    }

    /// Every request the generator makes, in its envelope, fits a log slot
    /// of the ordering layer: a format change that made one spill would
    /// commit a second, payload-sized slot per entry on every replica.
    #[test]
    fn the_largest_request_fits_a_log_slot() {
        let line = OrderLineReq {
            i_id: u32::MAX,
            supply_w: u16::MAX,
            qty: 10,
        };
        let (w, d, c) = (u16::MAX, u8::MAX, u32::MAX);
        let largest = [
            Transaction::NewOrder {
                w,
                d,
                c,
                lines: vec![line; crate::gen::MAX_LINES as usize],
            },
            Transaction::Payment {
                w,
                d,
                c_w: w,
                c_d: d,
                c,
                amount: u32::MAX,
            },
            Transaction::OrderStatus { w, d, c },
            Transaction::Delivery { w, carrier: 10 },
            Transaction::StockLevel {
                w,
                d,
                threshold: 20,
            },
        ];
        let sizes: Vec<usize> = largest
            .iter()
            .map(|t| t.encode().len() + heron_core::ENV_HDR)
            .collect();
        assert_eq!(sizes, [138, 39, 32, 28, 32], "requests in their envelopes");
        assert!(sizes.iter().all(|&n| n <= amcast::LOG_INLINE), "{sizes:?}");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Transaction::decode(&[]), None);
        assert_eq!(Transaction::decode(&[42, 0, 0]), None);
        assert_eq!(Transaction::decode(&[T_NEW_ORDER, 1]), None);
    }

    #[test]
    fn new_order_encoding_is_compact() {
        let t = Transaction::NewOrder {
            w: 1,
            d: 1,
            c: 1,
            lines: vec![
                OrderLineReq {
                    i_id: 1,
                    supply_w: 1,
                    qty: 1
                };
                15
            ],
        };
        // 15 lines must stay well under the request-size limit.
        assert!(t.encode().len() <= 9 + 15 * 7);
    }
}
