//! Seeded violations for the `guard-across-io` rule. Scanned by the
//! xtask unit tests only — never compiled.

pub fn bad_lock_across_page_read(ps: &PageSpace, core: &Core) {
    let g = core.state.lock();
    let page = ps.read_page(g.dataset, 0);
    drop(g);
    consume(page);
}

pub fn bad_read_guard_across_kernel(core: &Core) {
    let ds = core.store.read();
    core.app.execute(&ds.spec, &[], &core.ps.session_for(0, None));
}

pub fn bad_lock_across_batch_fetch(session: &PageSpaceSession, core: &Core) {
    let plan = core.state.lock();
    let pages = session.fetch(plan.dataset, &plan.chunks);
    drop(plan);
    consume(pages);
}

pub fn bad_store_guard_across_frame_write(core: &Core, spill: &SpillStore) {
    let mut ds = core.store.write();
    for req in ds.take_pending_spills() {
        consume(spill.write(req.blob, &req.meta, &req.bytes));
    }
}

pub fn bad_store_guard_across_frame_read(core: &Core, spill: &SpillStore, blob: BlobId) {
    let mut ds = core.store.write();
    let bytes = spill.read(blob);
    ds.restore(blob, bytes);
}

pub fn bad_store_guard_across_frame_unlink(core: &Core, spill: &SpillStore, blob: BlobId) {
    let ds = core.store.write();
    let _ = spill.remove(blob);
    drop(ds);
}

pub fn good_frame_io_outside_the_store_lock(core: &Core, spill: &SpillStore, blob: BlobId) {
    let bytes = spill.read(blob);
    core.store.write().restore(blob, bytes);
    let pending = core.store.write().take_pending_spills();
    for req in pending {
        consume(spill.write(req.blob, &req.meta, &req.bytes));
    }
    let _ = spill.remove(blob);
}

pub fn good_bookkeeping_under_the_lock(core: &Core, page: PageKey) {
    let cache = core.cache.lock();
    cache.complete_fetch(page, data());
    cache.abort_fetch(page);
}

pub fn good_drop_before_io(ps: &PageSpace, core: &Core) {
    let g = core.state.lock();
    let dataset = g.dataset;
    drop(g);
    consume(ps.read_page(dataset, 0));
}

pub fn good_scope_ends_before_io(ps: &PageSpace, core: &Core) {
    {
        let g = core.state.lock();
        consume(g.dataset);
    }
    consume(ps.read_page(0, 0));
}

pub fn good_temporary_guard(ps: &PageSpace, core: &Core) {
    let stats = core.state.lock().stats();
    consume(ps.read_page(stats.dataset, 0));
}

pub fn allowed_with_reason(ps: &PageSpace, core: &Core) {
    // lint:allow(guard-across-io): single-threaded recovery path at startup
    let g = core.state.lock();
    consume(ps.read_page(g.dataset, 0));
}

#[cfg(test)]
mod tests {
    pub fn fine_in_tests(ps: &PageSpace, core: &Core) {
        let g = core.state.lock();
        consume(ps.read_page(g.dataset, 0));
    }
}
