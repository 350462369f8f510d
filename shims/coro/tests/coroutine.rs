use coro::{suspend, Coroutine};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const STACK: usize = 1 << 20;

#[test]
fn resume_and_suspend_alternate() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = log.clone();
    let mut co = Coroutine::new(STACK, move || {
        for i in 0..3 {
            l.borrow_mut().push(i);
            suspend();
        }
    });
    assert!(
        log.borrow().is_empty(),
        "nothing runs before the first resume"
    );
    for i in 0..3 {
        assert!(co.resume());
        assert_eq!(log.borrow().len(), i + 1);
    }
    assert!(!co.resume(), "the body returned");
    assert_eq!(*log.borrow(), vec![0, 1, 2]);
}

#[test]
fn many_coroutines_interleave_and_keep_their_locals() {
    let sum = Rc::new(Cell::new(0u64));
    let mut cos: Vec<Coroutine> = (0..64u64)
        .map(|i| {
            let sum = sum.clone();
            Coroutine::new(STACK, move || {
                let mut local = i;
                for _ in 0..10 {
                    suspend();
                    local += 1;
                }
                sum.set(sum.get() + local);
            })
        })
        .collect();
    while !cos.is_empty() {
        cos.retain_mut(Coroutine::resume);
    }
    assert_eq!(sum.get(), (0..64).map(|i| i + 10).sum::<u64>());
}

#[test]
fn coroutines_nest() {
    let mut outer = Coroutine::new(STACK, || {
        let mut inner = Coroutine::new(STACK, || {
            suspend(); // to `outer`, not to the test
        });
        assert!(inner.resume());
        suspend();
        assert!(!inner.resume());
    });
    assert!(outer.resume());
    assert!(!outer.resume());
}

/// The entry call must see an ABI-aligned stack: the panic machinery uses
/// aligned SSE stores and segfaults on a misaligned one.
#[test]
fn a_panic_in_the_body_unwinds_and_is_reraised_by_resume() {
    struct SetOnDrop(Rc<Cell<bool>>);
    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }
    let dropped = Rc::new(Cell::new(false));
    let guard = SetOnDrop(dropped.clone());
    let mut co = Coroutine::new(STACK, move || {
        let _guard = guard;
        suspend();
        panic!("boom {}", 1.5f64);
    });
    assert!(co.resume());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| co.resume()))
        .expect_err("the body's panic comes out of resume");
    assert_eq!(
        err.downcast_ref::<String>().map(String::as_str),
        Some("boom 1.5")
    );
    assert!(
        dropped.get(),
        "the body's locals were dropped by the unwind"
    );
    let again = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| co.resume()));
    assert!(again.is_err(), "a finished coroutine cannot be resumed");
}

#[test]
fn suspend_outside_a_coroutine_panics() {
    assert!(std::panic::catch_unwind(suspend).is_err());
}

#[test]
fn dropping_unstarted_and_suspended_coroutines_is_safe() {
    drop(Coroutine::new(STACK, || unreachable!("never resumed")));
    let mut co = Coroutine::new(STACK, || {
        let _owned = String::from("never dropped");
        suspend();
        unreachable!("dropped while suspended");
    });
    assert!(co.resume());
    drop(co); // leaks the stack rather than freeing live frames
}

/// Looks up the mapping that holds `addr` in `/proc/self/maps` and returns
/// `(start, perms of the mapping that ends at start)`.
fn mapping_below(addr: usize) -> (usize, String) {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    let parsed: Vec<(usize, usize, String)> = maps
        .lines()
        .map(|l| {
            let mut it = l.split_whitespace();
            let (lo, hi) = it.next().unwrap().split_once('-').unwrap();
            (
                usize::from_str_radix(lo, 16).unwrap(),
                usize::from_str_radix(hi, 16).unwrap(),
                it.next().unwrap().to_string(),
            )
        })
        .collect();
    let (start, _, _) = parsed
        .iter()
        .find(|(lo, hi, _)| (*lo..*hi).contains(&addr))
        .unwrap();
    let below = parsed.iter().find(|(_, hi, _)| hi == start).unwrap();
    (*start, below.2.clone())
}

#[test]
fn the_stack_sits_on_a_guard_page() {
    let found = Rc::new(Cell::new((0usize, 0usize)));
    let f = found.clone();
    let mut co = Coroutine::new(STACK, move || {
        let local = 0u8;
        let here = std::ptr::addr_of!(local) as usize;
        let (start, perms) = mapping_below(here);
        assert_eq!(perms, "---p", "the page below the stack is inaccessible");
        f.set((here, start));
    });
    co.resume();
    let (here, start) = found.get();
    assert!(
        here - start > STACK - 64 * 1024,
        "the body starts near the top of its stack"
    );
}
