pub struct Dom(String);

pub fn load(input: &str) -> Dom {
    Dom(input.into())
}

impl Dom {
    pub fn render(&self) -> usize {
        self.0.clone().len()
    }
}
