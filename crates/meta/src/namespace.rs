//! The hierarchical namespace: a versioned inode tree with POSIX-flavored
//! directory operations.
//!
//! Paths are absolute (`/a/b/c`), components are non-empty and contain no
//! `/`. Every mutation bumps the affected inode versions and the global
//! `change_seq`, which client caches use for invalidation. Rename follows
//! POSIX: the target may be replaced if it is a file or an empty
//! directory, and a directory can never be moved into its own subtree.

use crate::error::MetaError;
use crate::inode::{FilePolicy, Inode, InodeAttr, InodeBody, InodeId, InodeKind, ROOT_INO};
use crate::layout::StripedLayout;

type Result<T> = std::result::Result<T, MetaError>;

/// Split and validate an absolute path into components.
pub(crate) fn split_path(path: &str) -> Result<Vec<&str>> {
    if !path.starts_with('/') {
        return Err(MetaError::InvalidPath);
    }
    let mut parts = Vec::new();
    for comp in path.split('/').skip(1) {
        if comp.is_empty() {
            // Allow a single trailing slash ("/a/b/"), reject "//".
            continue;
        }
        if comp == "." || comp == ".." {
            return Err(MetaError::InvalidPath);
        }
        parts.push(comp);
    }
    Ok(parts)
}

/// Parent path + final component, e.g. `/a/b/c` → (`["a","b"]`, `"c"`).
fn split_parent(path: &str) -> Result<(Vec<&str>, String)> {
    let mut parts = split_path(path)?;
    let Some(last) = parts.pop() else {
        return Err(MetaError::InvalidPath); // "/" has no parent entry
    };
    Ok((parts, last.to_string()))
}

/// Inodes by number: probed, inserted and removed by key, never iterated.
type Inodes = std::collections::HashMap<InodeId, Inode>; // membership only

/// The namespace service state.
pub struct Namespace {
    inodes: Inodes,
    next_ino: InodeId,
    /// Global mutation counter; bumped once per successful mutation.
    pub change_seq: u64,
}

impl Default for Namespace {
    fn default() -> Self {
        Namespace::new()
    }
}

impl Namespace {
    pub fn new() -> Namespace {
        let mut inodes = Inodes::new();
        inodes.insert(ROOT_INO, Inode::new_dir(ROOT_INO, ROOT_INO, 0));
        Namespace {
            inodes,
            next_ino: ROOT_INO + 1,
            change_seq: 0,
        }
    }

    pub fn inode(&self, ino: InodeId) -> Result<&Inode> {
        self.inodes.get(&ino).ok_or(MetaError::NotFound)
    }

    fn inode_mut(&mut self, ino: InodeId) -> Result<&mut Inode> {
        self.inodes.get_mut(&ino).ok_or(MetaError::NotFound)
    }

    /// Resolve a path to an inode id.
    pub fn resolve(&self, path: &str) -> Result<InodeId> {
        let parts = split_path(path)?;
        let mut cur = ROOT_INO;
        for comp in parts {
            let node = self.inode(cur)?;
            let dir = node.dir().ok_or(MetaError::NotADirectory)?;
            cur = *dir.entries.get(comp).ok_or(MetaError::NotFound)?;
        }
        Ok(cur)
    }

    /// `stat`: attributes of the entry at `path`.
    pub fn lookup(&self, path: &str) -> Result<InodeAttr> {
        let ino = self.resolve(path)?;
        Ok(self.inode(ino)?.attr.clone())
    }

    fn touch(&mut self, ino: InodeId, now_ns: u64) {
        if let Some(n) = self.inodes.get_mut(&ino) {
            n.attr.version += 1;
            n.attr.mtime_ns = now_ns;
        }
    }

    fn insert_child(
        &mut self,
        parent: InodeId,
        name: &str,
        mut child: Inode,
        now_ns: u64,
    ) -> Result<InodeAttr> {
        let ino = child.attr.ino;
        child.parent = parent;
        child.name = name.to_string();
        {
            let p = self.inode_mut(parent)?;
            let dir = p.dir_mut().ok_or(MetaError::NotADirectory)?;
            if dir.entries.contains_key(name) {
                return Err(MetaError::AlreadyExists);
            }
            dir.entries.insert(name.to_string(), ino);
            p.attr.nlink = p.dir().expect("dir").entries.len() as u32;
        }
        let attr = child.attr.clone();
        self.inodes.insert(ino, child);
        self.touch(parent, now_ns);
        self.change_seq += 1;
        Ok(attr)
    }

    /// Create a directory. The parent must already exist.
    pub fn mkdir(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr> {
        let (parents, name) = split_parent(path)?;
        let parent = self.resolve_parts(&parents)?;
        let ino = self.next_ino;
        self.next_ino += 1;
        self.insert_child(parent, &name, Inode::new_dir(ino, parent, now_ns), now_ns)
    }

    /// Create every missing directory along `path` (like `mkdir -p`).
    pub fn mkdir_p(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr> {
        let parts = split_path(path)?;
        let mut cur = String::new();
        let mut attr = self.inode(ROOT_INO)?.attr.clone();
        for comp in parts {
            cur.push('/');
            cur.push_str(comp);
            attr = match self.lookup(&cur) {
                Ok(a) if a.kind == InodeKind::Dir => a,
                Ok(_) => return Err(MetaError::NotADirectory),
                Err(MetaError::NotFound) => self.mkdir(&cur, now_ns)?,
                Err(e) => return Err(e),
            };
        }
        Ok(attr)
    }

    /// Create a file with the given layout and policy.
    pub fn create(
        &mut self,
        path: &str,
        layout: StripedLayout,
        policy: FilePolicy,
        now_ns: u64,
    ) -> Result<InodeAttr> {
        let (parents, name) = split_parent(path)?;
        let parent = self.resolve_parts(&parents)?;
        let ino = self.next_ino;
        self.next_ino += 1;
        self.insert_child(
            parent,
            &name,
            Inode::new_file(ino, layout, policy, now_ns),
            now_ns,
        )
    }

    /// List a directory: (name, attributes) in name order.
    pub(crate) fn readdir(&self, path: &str) -> Result<Vec<(String, InodeAttr)>> {
        let ino = self.resolve(path)?;
        let node = self.inode(ino)?;
        let dir = node.dir().ok_or(MetaError::NotADirectory)?;
        dir.entries
            .iter()
            .map(|(name, &child)| Ok((name.clone(), self.inode(child)?.attr.clone())))
            .collect()
    }

    /// Is `candidate` inside the subtree rooted at `root` (or equal)?
    fn is_descendant(&self, candidate: InodeId, root: InodeId) -> bool {
        let mut cur = candidate;
        loop {
            if cur == root {
                return true;
            }
            if cur == ROOT_INO {
                return false; // reached the top of the tree
            }
            let Some(node) = self.inodes.get(&cur) else {
                return false;
            };
            cur = node.parent;
        }
    }

    /// Rename `from` to `to`. Replaces an existing target only if it is a
    /// file or an empty directory; refuses to move a directory into its
    /// own subtree. Returns the inode id of a replaced target (if any) so
    /// callers can drop their own per-file state for it.
    pub fn rename(&mut self, from: &str, to: &str, now_ns: u64) -> Result<Option<InodeId>> {
        let (from_parents, from_name) = split_parent(from)?;
        let (to_parents, to_name) = split_parent(to)?;
        let from_parent = self.resolve_parts(&from_parents)?;
        let to_parent = self.resolve_parts(&to_parents)?;

        let moved = {
            let p = self.inode(from_parent)?;
            let dir = p.dir().ok_or(MetaError::NotADirectory)?;
            *dir.entries.get(&from_name).ok_or(MetaError::NotFound)?
        };

        // A directory cannot move under itself (includes from == to dirs).
        if self.inode(moved)?.dir().is_some() && self.is_descendant(to_parent, moved) {
            return Err(MetaError::RenameIntoDescendant);
        }

        // Validate (and collect) the replacement target, if any.
        let replaced = {
            let p = self.inode(to_parent)?;
            let dir = p.dir().ok_or(MetaError::NotADirectory)?;
            match dir.entries.get(&to_name) {
                None => None,
                Some(&t) if t == moved => return Ok(None), // no-op rename
                Some(&t) => {
                    let tn = self.inode(t)?;
                    match &tn.body {
                        InodeBody::File(_) => Some(t),
                        InodeBody::Dir(d) if d.entries.is_empty() => Some(t),
                        InodeBody::Dir(_) => return Err(MetaError::NotEmpty),
                    }
                }
            }
        };

        // Commit: unlink from the source dir, link into the target dir.
        {
            let p = self.inode_mut(from_parent)?;
            let dir = p.dir_mut().expect("dir");
            dir.entries.remove(&from_name);
            p.attr.nlink = p.dir().expect("dir").entries.len() as u32;
        }
        if let Some(t) = replaced {
            self.inodes.remove(&t);
        }
        {
            let p = self.inode_mut(to_parent)?;
            let dir = p.dir_mut().expect("dir");
            dir.entries.insert(to_name.clone(), moved);
            p.attr.nlink = p.dir().expect("dir").entries.len() as u32;
        }
        {
            let m = self.inode_mut(moved)?;
            m.parent = to_parent;
            m.name = to_name;
        }
        self.touch(from_parent, now_ns);
        if to_parent != from_parent {
            self.touch(to_parent, now_ns);
        }
        self.touch(moved, now_ns);
        self.change_seq += 1;
        Ok(replaced)
    }

    /// Full path of an inode, if it is still linked: walks the parent
    /// chain upward, O(depth).
    pub(crate) fn path_of(&self, ino: InodeId) -> Option<String> {
        if ino == ROOT_INO {
            return Some("/".to_string());
        }
        let mut parts: Vec<&str> = Vec::new();
        let mut cur = ino;
        while cur != ROOT_INO {
            let node = self.inodes.get(&cur)?;
            parts.push(node.name.as_str());
            cur = node.parent;
            if parts.len() > self.inodes.len() {
                return None; // corrupt parent chain; never a live inode
            }
        }
        parts.reverse();
        Some(format!("/{}", parts.join("/")))
    }

    /// Remove a file or an *empty* directory. Returns the removed attrs.
    pub(crate) fn unlink(&mut self, path: &str, now_ns: u64) -> Result<InodeAttr> {
        let (parents, name) = split_parent(path)?;
        let parent = self.resolve_parts(&parents)?;
        let target = {
            let p = self.inode(parent)?;
            let dir = p.dir().ok_or(MetaError::NotADirectory)?;
            *dir.entries.get(&name).ok_or(MetaError::NotFound)?
        };
        if let Some(d) = self.inode(target)?.dir() {
            if !d.entries.is_empty() {
                return Err(MetaError::NotEmpty);
            }
        }
        {
            let p = self.inode_mut(parent)?;
            let dir = p.dir_mut().expect("dir");
            dir.entries.remove(&name);
            p.attr.nlink = p.dir().expect("dir").entries.len() as u32;
        }
        let removed = self.inodes.remove(&target).expect("inode").attr;
        self.touch(parent, now_ns);
        self.change_seq += 1;
        Ok(removed)
    }

    /// Grow a file's logical size (placement appends bytes). Returns the
    /// offset the appended extent starts at and the new version.
    pub(crate) fn append(&mut self, ino: InodeId, len: u64, now_ns: u64) -> Result<(u64, u64)> {
        let n = self.inode_mut(ino)?;
        if n.file().is_none() {
            return Err(MetaError::IsADirectory);
        }
        let start = n.attr.size;
        n.attr.size += len;
        n.attr.version += 1;
        n.attr.mtime_ns = now_ns;
        let v = n.attr.version;
        self.change_seq += 1;
        Ok((start, v))
    }

    fn resolve_parts(&self, parts: &[&str]) -> Result<InodeId> {
        let mut cur = ROOT_INO;
        for comp in parts {
            let node = self.inode(cur)?;
            let dir = node.dir().ok_or(MetaError::NotADirectory)?;
            cur = *dir.entries.get(*comp).ok_or(MetaError::NotFound)?;
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StripedLayout;

    fn ns() -> Namespace {
        Namespace::new()
    }

    fn file(ns: &mut Namespace, path: &str) -> InodeAttr {
        ns.create(path, StripedLayout::single(0), FilePolicy::Plain, 0)
            .expect("create")
    }

    #[test]
    fn mkdir_create_lookup_readdir() {
        let mut n = ns();
        n.mkdir("/a", 10).unwrap();
        n.mkdir("/a/b", 20).unwrap();
        let f = file(&mut n, "/a/b/f1");
        assert_eq!(f.kind, InodeKind::File);
        let a = n.lookup("/a/b/f1").unwrap();
        assert_eq!(a.ino, f.ino);
        let list = n.readdir("/a/b").unwrap();
        assert_eq!(list.len(), 1);
        assert_eq!(list[0].0, "f1");
        assert_eq!(n.lookup("/a").unwrap().nlink, 1);
    }

    #[test]
    fn lookup_miss_is_typed() {
        let n = ns();
        assert_eq!(n.lookup("/nope"), Err(MetaError::NotFound));
        assert_eq!(n.lookup("relative"), Err(MetaError::InvalidPath));
    }

    #[test]
    fn file_component_mid_path_is_not_a_directory() {
        let mut n = ns();
        file(&mut n, "/f");
        assert_eq!(n.lookup("/f/x"), Err(MetaError::NotADirectory));
        assert_eq!(n.mkdir("/f/d", 0), Err(MetaError::NotADirectory));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut n = ns();
        file(&mut n, "/f");
        assert_eq!(
            n.create("/f", StripedLayout::single(0), FilePolicy::Plain, 0),
            Err(MetaError::AlreadyExists)
        );
        assert_eq!(n.mkdir("/f", 0), Err(MetaError::AlreadyExists));
    }

    #[test]
    fn rename_moves_subtree() {
        let mut n = ns();
        n.mkdir("/a", 0).unwrap();
        n.mkdir("/a/sub", 0).unwrap();
        file(&mut n, "/a/sub/f");
        n.mkdir("/b", 0).unwrap();
        n.rename("/a/sub", "/b/moved", 1).unwrap();
        assert_eq!(n.lookup("/a/sub"), Err(MetaError::NotFound));
        assert!(n.lookup("/b/moved/f").is_ok());
    }

    #[test]
    fn rename_into_own_descendant_rejected() {
        let mut n = ns();
        n.mkdir("/a", 0).unwrap();
        n.mkdir("/a/b", 0).unwrap();
        n.mkdir("/a/b/c", 0).unwrap();
        assert_eq!(
            n.rename("/a", "/a/b/c/a2", 1),
            Err(MetaError::RenameIntoDescendant)
        );
        // Renaming a dir onto a path directly inside itself is also caught.
        assert_eq!(
            n.rename("/a", "/a/b/x", 1),
            Err(MetaError::RenameIntoDescendant)
        );
        // An unrelated sibling move still works.
        n.mkdir("/d", 0).unwrap();
        n.rename("/a/b/c", "/d/c", 2).unwrap();
    }

    #[test]
    fn rename_replaces_file_and_empty_dir_only() {
        let mut n = ns();
        file(&mut n, "/src");
        file(&mut n, "/dst");
        n.rename("/src", "/dst", 1).unwrap(); // file over file: ok
        assert_eq!(n.lookup("/src"), Err(MetaError::NotFound));

        n.mkdir("/ed", 0).unwrap();
        file(&mut n, "/f2");
        n.rename("/f2", "/ed", 2).unwrap(); // file over empty dir: ok
        assert_eq!(n.lookup("/ed").unwrap().kind, InodeKind::File);

        n.mkdir("/full", 0).unwrap();
        file(&mut n, "/full/x");
        file(&mut n, "/f3");
        assert_eq!(n.rename("/f3", "/full", 3), Err(MetaError::NotEmpty));
    }

    #[test]
    fn rename_to_self_is_noop() {
        let mut n = ns();
        let f = file(&mut n, "/f");
        let seq = n.change_seq;
        n.rename("/f", "/f", 1).unwrap();
        assert_eq!(n.lookup("/f").unwrap().ino, f.ino);
        assert_eq!(n.change_seq, seq, "no-op rename does not mutate");
    }

    #[test]
    fn unlink_non_empty_dir_rejected() {
        let mut n = ns();
        n.mkdir("/d", 0).unwrap();
        file(&mut n, "/d/f");
        assert_eq!(n.unlink("/d", 1), Err(MetaError::NotEmpty));
        n.unlink("/d/f", 2).unwrap();
        n.unlink("/d", 3).unwrap();
        assert_eq!(n.lookup("/d"), Err(MetaError::NotFound));
    }

    #[test]
    fn unlink_missing_is_typed() {
        let mut n = ns();
        assert_eq!(n.unlink("/ghost", 0), Err(MetaError::NotFound));
    }

    #[test]
    fn versions_bump_on_every_mutation() {
        let mut n = ns();
        n.mkdir("/a", 0).unwrap();
        let v1 = n.lookup("/a").unwrap().version;
        file(&mut n, "/a/f");
        let v2 = n.lookup("/a").unwrap().version;
        assert!(v2 > v1, "creating an entry bumps the parent dir version");
        let fv1 = n.lookup("/a/f").unwrap().version;
        let ino = n.resolve("/a/f").unwrap();
        n.append(ino, 4096, 5).unwrap();
        let fa = n.lookup("/a/f").unwrap();
        assert!(fa.version > fv1);
        assert_eq!(fa.size, 4096);
    }

    #[test]
    fn path_of_tracks_renames_and_unlinks() {
        let mut n = ns();
        n.mkdir("/a", 0).unwrap();
        n.mkdir("/a/b", 0).unwrap();
        let f = file(&mut n, "/a/b/f");
        assert_eq!(n.path_of(f.ino).as_deref(), Some("/a/b/f"));
        assert_eq!(n.path_of(crate::inode::ROOT_INO).as_deref(), Some("/"));
        n.rename("/a/b", "/c", 1).unwrap();
        assert_eq!(n.path_of(f.ino).as_deref(), Some("/c/f"));
        n.unlink("/c/f", 2).unwrap();
        assert_eq!(n.path_of(f.ino), None);
    }

    #[test]
    fn mkdir_p_is_idempotent() {
        let mut n = ns();
        n.mkdir_p("/x/y/z", 0).unwrap();
        let v = n.lookup("/x/y/z").unwrap();
        let again = n.mkdir_p("/x/y/z", 1).unwrap();
        assert_eq!(v.ino, again.ino);
        file(&mut n, "/x/f");
        assert_eq!(n.mkdir_p("/x/f/q", 2), Err(MetaError::NotADirectory));
    }
}
