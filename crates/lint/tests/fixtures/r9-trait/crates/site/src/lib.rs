pub struct Site(pub String);

impl net::Server for Site {
    fn handle(&self) -> String {
        self.0.clone()
    }
}

pub struct Page(pub String);

impl Page {
    pub fn handle(&self) -> String {
        self.0.to_owned()
    }
}
