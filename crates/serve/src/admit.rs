//! Per-scheme admission control.
//!
//! Each scheme id gets at most `limit` requests in flight at once;
//! excess requests are rejected with the typed `overloaded` wire code
//! instead of queueing (the client owns its retry policy — the daemon's
//! latency stays bounded). Permits are RAII: dropping one releases the
//! slot, so every exit path — success, prover failure, panic unwound by
//! the connection handler — gives the slot back.
//!
//! Within one request batch the server acquires permits in request
//! order, which makes overload deterministic: a batch carrying more
//! same-scheme requests than the limit always sees exactly the excess
//! rejected, independent of thread scheduling.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Shared admission state for one daemon.
#[derive(Clone)]
pub struct Admission {
    limit: usize,
    in_flight: Arc<Mutex<HashMap<&'static str, usize>>>,
}

impl Admission {
    /// Admission allowing `limit` in-flight requests per scheme.
    /// A limit of 0 rejects everything (useful in tests).
    pub fn new(limit: usize) -> Admission {
        Admission {
            limit,
            in_flight: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The per-scheme in-flight cap.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Tries to take a slot for `scheme`, a catalogue entry's id. `None`
    /// means the scheme is at its limit — reject with `overloaded`.
    pub fn try_acquire(&self, scheme: &'static str) -> Option<Permit> {
        let mut map = self.in_flight.lock().expect("admission lock poisoned");
        let count = map.entry(scheme).or_insert(0);
        if *count >= self.limit {
            return None;
        }
        *count += 1;
        Some(Permit {
            scheme,
            in_flight: Arc::clone(&self.in_flight),
        })
    }

    /// Requests currently holding a slot for `scheme`.
    pub fn in_flight(&self, scheme: &str) -> usize {
        self.in_flight
            .lock()
            .expect("admission lock poisoned")
            .get(scheme)
            .copied()
            .unwrap_or(0)
    }
}

/// A held admission slot; dropping releases it.
pub struct Permit {
    scheme: &'static str,
    in_flight: Arc<Mutex<HashMap<&'static str, usize>>>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        if let Ok(mut map) = self.in_flight.lock() {
            if let Some(count) = map.get_mut(self.scheme) {
                *count = count.saturating_sub(1);
                if *count == 0 {
                    map.remove(self.scheme);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limit_is_per_scheme_and_permits_release_on_drop() {
        let a = Admission::new(2);
        let p1 = a.try_acquire("spanning-tree").unwrap();
        let _p2 = a.try_acquire("spanning-tree").unwrap();
        assert!(a.try_acquire("spanning-tree").is_none(), "at the limit");
        assert!(
            a.try_acquire("acyclicity").is_some(),
            "other schemes unaffected"
        );
        assert_eq!(a.in_flight("spanning-tree"), 2);
        drop(p1);
        assert_eq!(a.in_flight("spanning-tree"), 1);
        assert!(a.try_acquire("spanning-tree").is_some(), "slot came back");
    }

    #[test]
    fn zero_limit_rejects_everything() {
        let a = Admission::new(0);
        assert!(a.try_acquire("spanning-tree").is_none());
        assert_eq!(a.in_flight("spanning-tree"), 0);
    }
}
