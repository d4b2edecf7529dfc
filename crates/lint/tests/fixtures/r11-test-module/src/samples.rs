pub fn save_sample(path: &std::path::Path) {
    let _ = std::fs::write(path, b"");
}
