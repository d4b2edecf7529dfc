pub struct Cli(String);

impl Cli {
    pub fn new(arg: &str) -> Cli {
        Cli(arg.into())
    }

    pub fn render(&self) -> usize {
        self.0.to_string().len()
    }
}
