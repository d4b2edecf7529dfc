//! Trait fixture: `net` calls `Server::handle` through a trait object,
//! and `site` implements the trait. `site` is not a dependency of `net`,
//! yet the impl is reached because `net` can see the trait. Fires
//! `hot-path-allocation` exactly once, on `Site::handle`; the inherent,
//! allocating `Page::handle` in `site` stays silent.

pub trait Server {
    fn handle(&self) -> String;
}

pub fn measure_site(server: &dyn Server) -> usize {
    server.handle().len()
}
