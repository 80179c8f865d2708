//! Table 2: "Comparison of persistent storage mechanisms available in
//! the browser" — format, synchrony, maximum size, and cross-browser
//! compatibility.
//!
//! Reproduction: the static survey rows come from
//! [`doppio_jsengine::storage::table2_rows`]; the availability matrix
//! and the quota column are then **probed live** against every
//! simulated browser profile (a write at the quota boundary must
//! succeed, one past it must fail).

use std::cell::Cell;
use std::rc::Rc;

use doppio_jsengine::storage::{async_put, table2_rows, AsyncMechanism, SyncMechanism};
use doppio_jsengine::{Browser, Engine};

use crate::rule;

/// Table 2's survey rows, then the live availability and quota probes.
pub fn table2_storage() -> String {
    let mut out = String::new();
    out.push_str("Table 2: browser persistent storage mechanisms\n\n");
    out.push_str(
        "mechanism      format                     sync       max size   compat    status\n",
    );
    rule(&mut out, 80);
    for row in table2_rows() {
        let size = match row.max_size_bytes {
            Some(b) if b >= 1024 * 1024 => format!("{} MB", b / 1024 / 1024),
            Some(b) => format!("{} KB", b / 1024),
            None => "user-specified".to_string(),
        };
        putln!(
            out,
            "{:<14} {:<24} {:>6} {:>14} {:>7}% {:>9}",
            row.name,
            row.format,
            if row.synchronous { "yes" } else { "no" },
            size,
            row.compatibility_pct,
            if row.defunct { "defunct" } else { "standard" }
        );
    }

    putln!(out, "\nLive availability probes per simulated browser:");
    put!(out, "{:>14} |", "mechanism");
    for b in Browser::ALL {
        put!(out, "{:>9}", b.name());
    }
    putln!(out);
    rule(&mut out, 14 + 2 + 9 * Browser::ALL.len());

    let sync_mechs = [
        SyncMechanism::Cookies,
        SyncMechanism::LocalStorage,
        SyncMechanism::UserBehavior,
    ];
    for m in sync_mechs {
        put!(out, "{:>14} |", m.name());
        for b in Browser::ALL {
            let e = Engine::new(b);
            let browser = e.profile().browser.name();
            let ok = e.with_storage(|s, _| s.sync_store(m).set_item(browser, "probe", "x").is_ok());
            put!(out, "{:>9}", if ok { "yes" } else { "-" });
        }
        putln!(out);
    }
    let async_mechs = [
        AsyncMechanism::IndexedDb,
        AsyncMechanism::WebSql,
        AsyncMechanism::FileSystemApi,
    ];
    for m in async_mechs {
        put!(out, "{:>14} |", m.name());
        for b in Browser::ALL {
            let e = Engine::new(b);
            let done = Rc::new(Cell::new(false));
            let d = done.clone();
            let started = async_put(&e, m, "probe".into(), vec![1], move |_, r| {
                d.set(r.is_ok());
            })
            .is_ok();
            e.run_until_idle();
            let ok = started && done.get();
            put!(out, "{:>9}", if ok { "yes" } else { "-" });
        }
        putln!(out);
    }

    // Quota enforcement probe: localStorage's 5 MB boundary.
    putln!(out, "\nQuota probe (localStorage, 5 MB):");
    let e = Engine::new(Browser::Chrome);
    let under = "x".repeat(2 * 1024 * 1024 - 64); // 4 MB minus slack
    let fits = e.with_storage(|s, _| {
        s.sync_store(SyncMechanism::LocalStorage)
            .set_item("Chrome", "big", &under)
            .is_ok()
    });
    let over = "y".repeat(1024 * 1024); // +2 MB more: over quota
    let rejected = e.with_storage(|s, _| {
        s.sync_store(SyncMechanism::LocalStorage)
            .set_item("Chrome", "big2", &over)
            .is_err()
    });
    putln!(out, "  4 MB write accepted: {fits}");
    putln!(out, "  further 2 MB write rejected (quota): {rejected}");
    assert!(fits && rejected, "quota probe failed");
    out
}
