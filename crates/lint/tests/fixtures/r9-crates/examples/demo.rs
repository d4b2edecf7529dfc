fn main() {
    visit::measure_site("<p>hi</p>");
    cli::Cli::new("--help").render();
}
