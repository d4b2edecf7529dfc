fn main() {
    let log = a::Log::default();
    log.flush(&mut std::io::stdout());
}
