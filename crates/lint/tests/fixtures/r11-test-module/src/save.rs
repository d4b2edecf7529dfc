pub fn save(path: &std::path::Path) {
    let _ = std::fs::write(path, b"");
}
