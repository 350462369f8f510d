//! The TPC-C state machine on Heron.
//!
//! One *or more* warehouses per partition (paper §IV-A uses one; packing
//! several per partition raises the intra-partition concurrency available
//! to the P-SMR executor pool). Warehouse `w` lives on partition
//! `(w - 1) % partitions`. Warehouse and Item are
//! replicated read-only in every partition; Customer and Stock are stored
//! serialized because remote partitions read them during execution
//! (Payment and NewOrder respectively); everything else is native, local
//! state.
//!
//! Multi-partition transactions execute at *every* involved partition,
//! each updating only its local rows — the home partition writes the
//! order/district/customer/history rows, and each supplying warehouse
//! updates its own stock (the "partial execution" of §IV-A).

use crate::gen::TpccGen;
use crate::ids::{self, Table};
use crate::rows::*;
use crate::scale::TpccScale;
use crate::txn::Transaction;
use bytes::Bytes;
use heron_core::{
    Execution, LocalReader, ObjectId, PartitionId, Placement, ReadSet, StateMachine, StorageKind,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Modeled CPU costs of transaction logic, charged to the executing
/// replica's virtual clock. Calibrated so that Fig. 6/7's latencies land
/// in the paper's range (see `EXPERIMENTS.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccCosts {
    /// Fixed cost per transaction (dispatch, request parse).
    pub base: Duration,
    /// Per row deserialized/serialized from a *serialized* table
    /// (Customer, Stock) — the expensive accesses of §V-D2.
    pub per_serialized_row: Duration,
    /// Per row touched in a native table.
    pub per_native_row: Duration,
}

impl Default for TpccCosts {
    fn default() -> Self {
        TpccCosts {
            base: Duration::from_nanos(1_500),
            per_serialized_row: Duration::from_nanos(430),
            per_native_row: Duration::from_nanos(110),
        }
    }
}

/// The TPC-C application: implements [`StateMachine`] for Heron.
#[derive(Debug, Clone)]
pub struct TpccApp {
    scale: TpccScale,
    warehouses: u16,
    partitions: u16,
    /// CPU-cost model.
    pub costs: TpccCosts,
}

impl TpccApp {
    /// Creates the application for `warehouses` warehouses at `scale`,
    /// one warehouse per partition (the paper's deployment shape).
    pub fn new(scale: TpccScale, warehouses: u16) -> Self {
        TpccApp {
            scale,
            warehouses,
            partitions: warehouses,
            costs: TpccCosts::default(),
        }
    }

    /// Packs the warehouses onto `partitions` partitions round-robin
    /// (warehouse `w` → partition `(w - 1) % partitions`). More than one
    /// warehouse per partition gives the parallel executor pool disjoint
    /// conflict classes to run concurrently.
    pub fn with_partitions(mut self, partitions: u16) -> Self {
        assert!(
            partitions >= 1 && partitions <= self.warehouses,
            "partitions must be in 1..=warehouses"
        );
        self.partitions = partitions;
        self
    }

    /// The configured scale.
    pub fn scale(&self) -> TpccScale {
        self.scale
    }

    /// Number of warehouses (≥ partitions).
    pub fn warehouses(&self) -> u16 {
        self.warehouses
    }

    /// Number of partitions the warehouses are packed onto.
    pub fn partitions(&self) -> u16 {
        self.partitions
    }

    /// Warehouse ids are 1-based; partition ids are 0-based.
    fn partition_of_w(&self, w: u16) -> PartitionId {
        debug_assert!(w >= 1);
        PartitionId((w - 1) % self.partitions)
    }

    /// Does `partition` host warehouse `w`'s local tables?
    fn hosts(&self, partition: PartitionId, w: u16) -> bool {
        self.partition_of_w(w) == partition
    }

    /// A workload generator wired to this deployment's shape.
    pub fn generator(&self, seed: u64) -> TpccGen {
        TpccGen::new(self.scale, self.warehouses, seed)
    }

    fn read_district(reads: &ReadSet, local: &dyn LocalReader, w: u16, d: u8) -> DistrictRow {
        let oid = ids::district(w, d);
        let bytes = reads
            .get(oid)
            .cloned()
            .or_else(|| local.read(oid))
            .expect("district row present");
        DistrictRow::from_bytes(&bytes)
    }

    // ---- transaction bodies -----------------------------------------

    #[allow(clippy::too_many_arguments)] // mirrors the transaction's fields
    fn exec_new_order(
        &self,
        partition: PartitionId,
        w: u16,
        d: u8,
        c: u32,
        lines: &[crate::txn::OrderLineReq],
        reads: &ReadSet,
        local: &dyn LocalReader,
    ) -> Execution {
        let mut writes: Vec<(ObjectId, Bytes)> = Vec::new();
        let mut serialized_rows = 0u32;
        let mut native_rows = 0u32;
        let mut response = Vec::new();

        // Every partition updates the stock rows of the supplying
        // warehouses it hosts (possibly several, possibly also the home).
        for l in lines {
            if !self.hosts(partition, l.supply_w) {
                continue;
            }
            let soid = ids::stock(l.supply_w, l.i_id);
            let stock_bytes = reads
                .get(soid)
                .cloned()
                .or_else(|| local.read(soid))
                .expect("stock row present");
            let mut stock = StockRow::from_bytes(&stock_bytes);
            stock.quantity = if stock.quantity >= l.qty as u32 + 10 {
                stock.quantity - l.qty as u32
            } else {
                stock.quantity + 91 - l.qty as u32
            };
            stock.ytd += l.qty as u32;
            stock.order_cnt += 1;
            if l.supply_w != w {
                stock.remote_cnt += 1;
            }
            serialized_rows += 2; // deserialize + reserialize
            writes.push((soid, Bytes::from(stock.to_bytes())));
        }

        // The home warehouse enters the order.
        if self.hosts(partition, w) {
            let mut district = Self::read_district(reads, local, w, d);
            let o_id = district.next_o_id;
            district.next_o_id += 1;
            native_rows += 2;

            let coid = ids::customer(w, d, c);
            let mut customer = CustomerRow::from_bytes(
                reads.get(coid).expect("customer row in read set").as_ref(),
            );
            customer.last_o_id = o_id;
            serialized_rows += 2;
            writes.push((coid, Bytes::from(customer.to_bytes())));

            let all_local = lines.iter().all(|l| l.supply_w == w);
            let mut total: u64 = 0;
            for (k, l) in lines.iter().enumerate() {
                let item = ItemRow::from_bytes(
                    local
                        .read(ids::item(l.i_id))
                        .expect("item is replicated everywhere")
                        .as_ref(),
                );
                // Remote stock rows were fetched with one-sided reads; we
                // copy their district info into the order line.
                let soid = ids::stock(l.supply_w, l.i_id);
                let dist_info = reads
                    .get(soid)
                    .map(|b| StockRow::from_bytes(b).dist_info(d))
                    .unwrap_or([0u8; 24]);
                serialized_rows += 1; // stock deserialize for dist info
                let amount = item.price as u64 * l.qty as u64;
                total += amount;
                let ol = OrderLineRow {
                    w_id: w as u32,
                    d_id: d as u32,
                    o_id,
                    number: k as u32 + 1,
                    i_id: l.i_id,
                    supply_w_id: l.supply_w as u32,
                    quantity: l.qty as u32,
                    amount,
                    delivery_ts: 0,
                    dist_info,
                };
                native_rows += 1;
                writes.push((
                    ids::order_line(w, d, o_id, k as u8 + 1),
                    Bytes::from(ol.to_bytes()),
                ));
            }
            let order = OrderRow {
                w_id: w as u32,
                d_id: d as u32,
                id: o_id,
                c_id: c,
                entry_ts: 0, // must be identical at every replica
                carrier_id: 0,
                ol_cnt: lines.len() as u32,
                all_local: all_local as u32,
            };
            native_rows += 2;
            writes.push((ids::order(w, d, o_id), Bytes::from(order.to_bytes())));
            writes.push((
                ids::new_order(w, d, o_id),
                Bytes::from(
                    NewOrderRow {
                        w_id: w as u32,
                        d_id: d as u32,
                        o_id,
                        delivered: 0,
                    }
                    .to_bytes(),
                ),
            ));
            writes.push((ids::district(w, d), Bytes::from(district.to_bytes())));
            response.extend_from_slice(&o_id.to_le_bytes());
            response.extend_from_slice(&total.to_le_bytes());
        }

        Execution {
            writes,
            response: Bytes::from(response),
            compute: self.cost(serialized_rows, native_rows),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_payment(
        &self,
        partition: PartitionId,
        w: u16,
        d: u8,
        c_w: u16,
        c_d: u8,
        c: u32,
        amount: u32,
        reads: &ReadSet,
        local: &dyn LocalReader,
    ) -> Execution {
        let mut writes: Vec<(ObjectId, Bytes)> = Vec::new();
        let mut serialized_rows = 1u32; // customer deserialize (both sides)
        let mut native_rows = 0u32;

        let coid = ids::customer(c_w, c_d, c);
        let mut customer =
            CustomerRow::from_bytes(reads.get(coid).expect("customer in read set").as_ref());
        customer.balance -= amount as i64;
        customer.ytd_payment += amount as u64;
        customer.payment_cnt += 1;
        if &customer.credit == b"BC" {
            // Bad credit: prepend payment info to the 500-byte data field
            // (the spec's expensive path).
            let mut data = Vec::with_capacity(500);
            data.extend_from_slice(&c.to_le_bytes());
            data.extend_from_slice(&(c_w as u32).to_le_bytes());
            data.extend_from_slice(&amount.to_le_bytes());
            data.extend_from_slice(&customer.data);
            data.truncate(500);
            customer.data = data.try_into().expect("500 bytes");
            serialized_rows += 2;
        }

        if self.hosts(partition, c_w) {
            serialized_rows += 1; // reserialize
            writes.push((coid, Bytes::from(customer.to_bytes())));
        }

        if self.hosts(partition, w) {
            let mut district = Self::read_district(reads, local, w, d);
            district.ytd += amount as u64;
            let h_id = district.next_h_id;
            district.next_h_id += 1;
            native_rows += 3;
            writes.push((ids::district(w, d), Bytes::from(district.to_bytes())));
            writes.push((
                ids::history(w, d, h_id),
                Bytes::from(
                    HistoryRow {
                        w_id: w as u32,
                        d_id: d as u32,
                        id: h_id,
                        c_w_id: c_w as u32,
                        c_d_id: c_d as u32,
                        c_id: c,
                        amount: amount as u64,
                        ts: 0,
                    }
                    .to_bytes(),
                ),
            ));
        }

        let mut response = Vec::with_capacity(8);
        response.extend_from_slice(&customer.balance.to_le_bytes());
        Execution {
            writes,
            response: Bytes::from(response),
            compute: self.cost(serialized_rows, native_rows),
        }
    }

    fn exec_order_status(
        &self,
        w: u16,
        d: u8,
        c: u32,
        reads: &ReadSet,
        local: &dyn LocalReader,
    ) -> Execution {
        let customer = CustomerRow::from_bytes(
            reads
                .get(ids::customer(w, d, c))
                .expect("customer in read set")
                .as_ref(),
        );
        let mut serialized_rows = 1u32;
        let mut native_rows = 0u32;
        let mut response = Vec::with_capacity(24);
        response.extend_from_slice(&customer.balance.to_le_bytes());
        response.extend_from_slice(&customer.last_o_id.to_le_bytes());
        if customer.last_o_id != 0 {
            if let Some(ob) = local.read(ids::order(w, d, customer.last_o_id)) {
                let order = OrderRow::from_bytes(&ob);
                native_rows += 1 + order.ol_cnt;
                let mut total = 0u64;
                for k in 1..=order.ol_cnt {
                    if let Some(lb) = local.read(ids::order_line(w, d, order.id, k as u8)) {
                        total += OrderLineRow::from_bytes(&lb).amount;
                    }
                }
                response.extend_from_slice(&order.carrier_id.to_le_bytes());
                response.extend_from_slice(&total.to_le_bytes());
            }
        }
        let _ = serialized_rows;
        serialized_rows = 1;
        Execution {
            writes: vec![],
            response: Bytes::from(response),
            compute: self.cost(serialized_rows, native_rows),
        }
    }

    fn exec_delivery(&self, w: u16, carrier: u8, local: &dyn LocalReader) -> Execution {
        let mut writes: Vec<(ObjectId, Bytes)> = Vec::new();
        let mut delivered = 0u32;
        let mut serialized_rows = 0u32;
        let mut native_rows = 0u32;
        for d in 1..=self.scale.districts {
            let Some(db) = local.read(ids::district(w, d)) else {
                continue;
            };
            let mut district = DistrictRow::from_bytes(&db);
            native_rows += 1;
            let o_id = district.oldest_undelivered;
            if o_id >= district.next_o_id {
                continue; // nothing to deliver in this district
            }
            let Some(ob) = local.read(ids::order(w, d, o_id)) else {
                continue;
            };
            let mut order = OrderRow::from_bytes(&ob);
            order.carrier_id = carrier as u32;
            let mut total = 0u64;
            for k in 1..=order.ol_cnt {
                let loid = ids::order_line(w, d, o_id, k as u8);
                if let Some(lb) = local.read(loid) {
                    let mut line = OrderLineRow::from_bytes(&lb);
                    total += line.amount;
                    line.delivery_ts = 1; // deterministic "delivered" marker
                    native_rows += 2;
                    writes.push((loid, Bytes::from(line.to_bytes())));
                }
            }
            if let Some(cb) = local.read(ids::customer(w, d, order.c_id)) {
                let mut customer = CustomerRow::from_bytes(&cb);
                customer.balance += total as i64;
                customer.delivery_cnt += 1;
                serialized_rows += 2;
                writes.push((
                    ids::customer(w, d, order.c_id),
                    Bytes::from(customer.to_bytes()),
                ));
            }
            let nooid = ids::new_order(w, d, o_id);
            if let Some(nb) = local.read(nooid) {
                let mut no = NewOrderRow::from_bytes(&nb);
                no.delivered = 1;
                native_rows += 1;
                writes.push((nooid, Bytes::from(no.to_bytes())));
            }
            district.oldest_undelivered = o_id + 1;
            native_rows += 2;
            writes.push((ids::order(w, d, o_id), Bytes::from(order.to_bytes())));
            writes.push((ids::district(w, d), Bytes::from(district.to_bytes())));
            delivered += 1;
        }
        Execution {
            writes,
            response: Bytes::copy_from_slice(&delivered.to_le_bytes()),
            compute: self.cost(serialized_rows, native_rows),
        }
    }

    fn exec_stock_level(
        &self,
        w: u16,
        d: u8,
        threshold: u32,
        local: &dyn LocalReader,
    ) -> Execution {
        let mut serialized_rows = 0u32;
        let mut native_rows = 1u32;
        let mut low = 0u32;
        let Some(db) = local.read(ids::district(w, d)) else {
            return Execution::default();
        };
        let district = DistrictRow::from_bytes(&db);
        let hi = district.next_o_id;
        let lo = hi.saturating_sub(20).max(1);
        let mut items = std::collections::BTreeSet::new();
        for o in lo..hi {
            let Some(ob) = local.read(ids::order(w, d, o)) else {
                continue;
            };
            let order = OrderRow::from_bytes(&ob);
            native_rows += 1 + order.ol_cnt;
            for k in 1..=order.ol_cnt {
                if let Some(lb) = local.read(ids::order_line(w, d, o, k as u8)) {
                    items.insert(OrderLineRow::from_bytes(&lb).i_id);
                }
            }
        }
        for i in &items {
            if let Some(sb) = local.read(ids::stock(w, *i)) {
                // Reading a serialized Stock row means deserializing it —
                // the reason StockLevel is expensive (§V-D2).
                serialized_rows += 1;
                if StockRow::from_bytes(&sb).quantity < threshold {
                    low += 1;
                }
            }
        }
        Execution {
            writes: vec![],
            response: Bytes::copy_from_slice(&low.to_le_bytes()),
            compute: self.cost(serialized_rows, native_rows),
        }
    }

    fn cost(&self, serialized_rows: u32, native_rows: u32) -> Duration {
        self.costs.base
            + self.costs.per_serialized_row * serialized_rows
            + self.costs.per_native_row * native_rows
    }
}

impl StateMachine for TpccApp {
    fn placement(&self, oid: ObjectId) -> Placement {
        match ids::table_of(oid) {
            Some(Table::Warehouse) | Some(Table::Item) => Placement::Replicated,
            _ => Placement::Partition(self.partition_of_w(ids::warehouse_of(oid))),
        }
    }

    fn storage_kind(&self, oid: ObjectId) -> StorageKind {
        match ids::table_of(oid) {
            Some(Table::Customer) | Some(Table::Stock) => StorageKind::Serialized,
            _ => StorageKind::Native,
        }
    }

    fn destinations(&self, request: &[u8]) -> Vec<PartitionId> {
        // Several warehouses may map to the same partition: dedup.
        let mut dests: Vec<PartitionId> = Transaction::decode(request)
            .expect("well-formed TPC-C request")
            .warehouses()
            .into_iter()
            .map(|w| self.partition_of_w(w))
            .collect();
        dests.sort_unstable_by_key(|p| p.0);
        dests.dedup();
        dests
    }

    fn read_set(&self, request: &[u8]) -> Vec<ObjectId> {
        // The union over partitions (used by generic tooling only; the
        // engine asks per partition via read_set_at).
        let txn = Transaction::decode(request).expect("well-formed TPC-C request");
        match txn {
            Transaction::NewOrder { w, d, c, ref lines } => {
                let mut rs = vec![ids::district(w, d), ids::customer(w, d, c)];
                rs.extend(lines.iter().map(|l| ids::stock(l.supply_w, l.i_id)));
                rs.sort_unstable();
                rs.dedup();
                rs
            }
            Transaction::Payment {
                w, d, c_w, c_d, c, ..
            } => {
                vec![ids::district(w, d), ids::customer(c_w, c_d, c)]
            }
            Transaction::OrderStatus { w, d, c } => vec![ids::customer(w, d, c)],
            Transaction::Delivery { .. } | Transaction::StockLevel { .. } => vec![],
        }
    }

    fn read_set_at(&self, partition: PartitionId, request: &[u8]) -> Vec<ObjectId> {
        let txn = Transaction::decode(request).expect("well-formed TPC-C request");
        match txn {
            Transaction::NewOrder { w, d, c, ref lines } => {
                if self.hosts(partition, w) {
                    // The home partition reads everything — including the
                    // remote Stock rows, with one-sided RDMA reads.
                    let mut rs = vec![ids::district(w, d), ids::customer(w, d, c)];
                    rs.extend(lines.iter().map(|l| ids::stock(l.supply_w, l.i_id)));
                    rs.sort_unstable();
                    rs.dedup();
                    rs
                } else {
                    // A supplying partition only needs the stock rows of
                    // the warehouses it hosts (partial execution, §IV-A).
                    let mut rs: Vec<ObjectId> = lines
                        .iter()
                        .filter(|l| self.hosts(partition, l.supply_w))
                        .map(|l| ids::stock(l.supply_w, l.i_id))
                        .collect();
                    rs.sort_unstable();
                    rs.dedup();
                    rs
                }
            }
            Transaction::Payment {
                w, d, c_w, c_d, c, ..
            } => {
                if self.hosts(partition, w) {
                    // Home reads the (possibly remote, serialized)
                    // customer row for the response.
                    vec![ids::district(w, d), ids::customer(c_w, c_d, c)]
                } else {
                    vec![ids::customer(c_w, c_d, c)]
                }
            }
            Transaction::OrderStatus { w, d, c } => vec![ids::customer(w, d, c)],
            Transaction::Delivery { .. } | Transaction::StockLevel { .. } => vec![],
        }
    }

    fn conflict_keys(&self, request: &[u8]) -> Vec<u64> {
        // Two token spaces, both borrowed from the object-id encoding so
        // they can never collide with each other:
        //   dist(w, d)  — the district row's oid. Serializes everything
        //                 that touches district (w, d): its orders, its
        //                 customers, its history.
        //   stock(w)    — the oid of the *nonexistent* stock row (w, item
        //                 0); item ids are 1-based, so no real object uses
        //                 it. One coarse token per warehouse's stock: a
        //                 StockLevel reads stock rows chosen by the data
        //                 (unknowable a priori), so stock conflicts must
        //                 be declared per warehouse, not per item.
        fn dist(w: u16, d: u8) -> u64 {
            ids::district(w, d).0
        }
        fn stock(w: u16) -> u64 {
            ids::stock(w, 0).0
        }
        let txn = Transaction::decode(request).expect("well-formed TPC-C request");
        let mut keys: Vec<u64> = match txn {
            Transaction::NewOrder {
                w, d, ref lines, ..
            } => {
                // District + customer + order inserts at home; stock
                // updates at each supplying warehouse.
                let mut k = vec![dist(w, d)];
                k.extend(lines.iter().map(|l| stock(l.supply_w)));
                k
            }
            Transaction::Payment { w, d, c_w, c_d, .. } => {
                // District/history at home, customer at (c_w, c_d).
                vec![dist(w, d), dist(c_w, c_d)]
            }
            Transaction::OrderStatus { w, d, .. } => vec![dist(w, d)],
            // Delivery walks every district of its warehouse.
            Transaction::Delivery { w, .. } => {
                (1..=self.scale.districts).map(|d| dist(w, d)).collect()
            }
            // StockLevel reads the district's recent orders and the
            // warehouse's stock rows.
            Transaction::StockLevel { w, d, .. } => vec![dist(w, d), stock(w)],
        };
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn execute(
        &self,
        partition: PartitionId,
        request: &[u8],
        reads: &ReadSet,
        local: &dyn LocalReader,
    ) -> Execution {
        match Transaction::decode(request).expect("well-formed TPC-C request") {
            Transaction::NewOrder { w, d, c, lines } => {
                self.exec_new_order(partition, w, d, c, &lines, reads, local)
            }
            Transaction::Payment {
                w,
                d,
                c_w,
                c_d,
                c,
                amount,
            } => self.exec_payment(partition, w, d, c_w, c_d, c, amount, reads, local),
            Transaction::OrderStatus { w, d, c } => self.exec_order_status(w, d, c, reads, local),
            Transaction::Delivery { w, carrier } => self.exec_delivery(w, carrier, local),
            Transaction::StockLevel { w, d, threshold } => {
                self.exec_stock_level(w, d, threshold, local)
            }
        }
    }

    fn bootstrap(&self, partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
        let mut rows: Vec<(ObjectId, Bytes)> = Vec::new();
        // Replicated tables: every warehouse row and every item row.
        for wh in 1..=self.warehouses {
            let row = WarehouseRow {
                id: wh as u32,
                tax_bp: 100 + (wh as u32 * 37) % 900,
                name: *b"warehouse-------",
            };
            rows.push((ids::warehouse(wh), Bytes::from(row.to_bytes())));
        }
        for i in 1..=self.scale.items {
            let row = ItemRow {
                id: i,
                im_id: i % 10_000,
                price: 100 + (i * 97) % 9_900,
                name: *b"item--------------------",
                data: [b'd'; 48],
            };
            rows.push((ids::item(i), Bytes::from(row.to_bytes())));
        }
        // Local tables for every warehouse this partition hosts. The rng
        // is reseeded per warehouse so the rows of warehouse `w` are the
        // same regardless of how warehouses are packed onto partitions.
        for w in (1..=self.warehouses).filter(|&w| self.hosts(partition, w)) {
            self.bootstrap_warehouse(w, &mut rows);
        }
        rows
    }
}

impl TpccApp {
    fn bootstrap_warehouse(&self, w: u16, rows: &mut Vec<(ObjectId, Bytes)>) {
        let mut rng = SmallRng::seed_from_u64(self.scale.seed ^ (w as u64) << 32);
        for i in 1..=self.scale.items {
            let row = StockRow {
                w_id: w as u32,
                i_id: i,
                quantity: rng.gen_range(10..=100),
                ytd: 0,
                order_cnt: 0,
                remote_cnt: 0,
                dist: [b's'; 240],
                data: [b'x'; 48],
            };
            rows.push((ids::stock(w, i), Bytes::from(row.to_bytes())));
        }
        for d in 1..=self.scale.districts {
            let undelivered_from = self.scale.initial_orders - self.scale.initial_undelivered() + 1;
            let district = DistrictRow {
                w_id: w as u32,
                id: d as u32,
                tax_bp: 50 + (d as u32 * 13) % 200,
                ytd: 0,
                next_o_id: self.scale.initial_orders + 1,
                next_h_id: 1,
                oldest_undelivered: undelivered_from,
                name: *b"district--------",
            };
            rows.push((ids::district(w, d), Bytes::from(district.to_bytes())));
            for c in 1..=self.scale.customers {
                let bad_credit = rng.gen_range(0..10) == 0;
                let row = CustomerRow {
                    w_id: w as u32,
                    d_id: d as u32,
                    id: c,
                    balance: -10_00,
                    ytd_payment: 10_00,
                    payment_cnt: 1,
                    delivery_cnt: 0,
                    last_o_id: 0,
                    credit: if bad_credit { *b"BC" } else { *b"GC" },
                    last: [b'L'; 16],
                    first: [b'F'; 16],
                    data: [b'c'; 500],
                };
                rows.push((ids::customer(w, d, c), Bytes::from(row.to_bytes())));
            }
            // Pre-loaded orders: the oldest 70% delivered, the rest open.
            for o in 1..=self.scale.initial_orders {
                let c = (o - 1) % self.scale.customers + 1;
                let ol_cnt = rng.gen_range(5..=15u32);
                let delivered = o < undelivered_from;
                let order = OrderRow {
                    w_id: w as u32,
                    d_id: d as u32,
                    id: o,
                    c_id: c,
                    entry_ts: 0,
                    carrier_id: if delivered { rng.gen_range(1..=10) } else { 0 },
                    ol_cnt,
                    all_local: 1,
                };
                rows.push((ids::order(w, d, o), Bytes::from(order.to_bytes())));
                rows.push((
                    ids::new_order(w, d, o),
                    Bytes::from(
                        NewOrderRow {
                            w_id: w as u32,
                            d_id: d as u32,
                            o_id: o,
                            delivered: delivered as u32,
                        }
                        .to_bytes(),
                    ),
                ));
                for k in 1..=ol_cnt {
                    let i_id = rng.gen_range(1..=self.scale.items);
                    let line = OrderLineRow {
                        w_id: w as u32,
                        d_id: d as u32,
                        o_id: o,
                        number: k,
                        i_id,
                        supply_w_id: w as u32,
                        quantity: rng.gen_range(1..=10),
                        amount: rng.gen_range(100..10_000),
                        delivery_ts: delivered as u64,
                        dist_info: [b's'; 24],
                    };
                    rows.push((
                        ids::order_line(w, d, o, k as u8),
                        Bytes::from(line.to_bytes()),
                    ));
                }
            }
        }
    }
}
