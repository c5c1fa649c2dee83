//! The output checker: a plain nested-loop evaluator over the
//! benchmark's own copy of the generated triples.
//!
//! It shares no code with `questpro-engine` or `questpro-core`. It parses
//! the server's SPARQL dialect itself (constants, variables,
//! disequalities, unions), keeps the triples in three sorted arrays, and
//! answers a query by trying every candidate image of the projected
//! variable and searching, edge by edge, for one homomorphism. A match
//! need not be injective: two variables may map to one node unless a
//! `FILTER(?a != ?b)` says otherwise.

use std::collections::{BTreeSet, HashMap};

/// An interned label (node value or predicate name).
pub type Id = u32;

/// A triple of interned labels, `[subject, predicate, object]`.
pub type Triple = [Id; 3];

/// The checker's copy of one world: a frozen base plus the triples live
/// updates inserted since.
#[derive(Default)]
pub struct World {
    names: Vec<String>,
    ids: HashMap<String, Id>,
    /// `is_node[id]`: the label names a node (it appeared as a subject,
    /// an object or in a type declaration).
    is_node: Vec<bool>,
    /// Base triples sorted as `[s, p, o]`.
    spo: Vec<Triple>,
    /// Base triples stored as `[o, p, s]`, sorted.
    ops: Vec<Triple>,
    /// Base triples stored as `[p, s, o]`, sorted.
    pso: Vec<Triple>,
    /// Triples inserted after [`World::freeze`], in insertion order.
    extra: Vec<Triple>,
}

impl World {
    /// Interns a label.
    pub fn intern(&mut self, label: &str) -> Id {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = Id::try_from(self.names.len()).expect("fewer than 2^32 labels");
        self.names.push(label.to_string());
        self.ids.insert(label.to_string(), id);
        self.is_node.push(false);
        id
    }

    /// The id of a label, if the world has seen it.
    pub fn id(&self, label: &str) -> Option<Id> {
        self.ids.get(label).copied()
    }

    /// The label of an id.
    pub fn name(&self, id: Id) -> &str {
        &self.names[id as usize]
    }

    /// Declares a node that may carry no edge (a `@type` line).
    pub fn add_node(&mut self, label: &str) -> Id {
        let id = self.intern(label);
        self.is_node[id as usize] = true;
        id
    }

    /// Adds a base triple; call [`World::freeze`] once all are in.
    pub fn add(&mut self, s: &str, p: &str, o: &str) {
        let t = [self.add_node(s), self.intern(p), self.add_node(o)];
        self.spo.push(t);
    }

    /// Sorts the base triples into their three orders.
    pub fn freeze(&mut self) {
        self.spo.sort_unstable();
        self.spo.dedup();
        self.ops = self.spo.iter().map(|&[s, p, o]| [o, p, s]).collect();
        self.ops.sort_unstable();
        self.pso = self.spo.iter().map(|&[s, p, o]| [p, s, o]).collect();
        self.pso.sort_unstable();
    }

    /// Parses the triple text format (`s p o` lines, `@type v T` lines,
    /// `#` comments) into a frozen world.
    pub fn from_text(text: &str) -> Result<World, String> {
        let mut w = World::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["@type", v, _] => {
                    w.add_node(&unescape(v)?);
                }
                [s, p, o] => w.add(&unescape(s)?, &unescape(p)?, &unescape(o)?),
                _ => return Err(format!("line {}: not a triple: {line:?}", i + 1)),
            }
        }
        w.freeze();
        Ok(w)
    }

    /// Number of triples, base plus inserted.
    pub fn triple_count(&self) -> usize {
        self.spo.len() + self.extra.len()
    }

    /// Whether the triple is in the world.
    pub fn has(&self, t: Triple) -> bool {
        self.spo.binary_search(&t).is_ok() || self.extra.contains(&t)
    }

    /// Inserts a triple that is not in the world yet.
    pub fn insert(&mut self, s: &str, p: &str, o: &str) -> Result<(), String> {
        let t = [self.add_node(s), self.intern(p), self.add_node(o)];
        if self.has(t) {
            return Err(format!("insert of existing triple {s} {p} {o}"));
        }
        self.extra.push(t);
        Ok(())
    }

    /// Deletes a triple inserted by [`World::insert`]. Base triples are
    /// never deleted by the benchmark's update batches.
    pub fn delete(&mut self, s: &str, p: &str, o: &str) -> Result<(), String> {
        let t = match (self.id(s), self.id(p), self.id(o)) {
            (Some(s), Some(p), Some(o)) => [s, p, o],
            _ => return Err(format!("delete of unknown triple {s} {p} {o}")),
        };
        match self.extra.iter().position(|&x| x == t) {
            Some(i) => {
                self.extra.remove(i);
                Ok(())
            }
            None => Err(format!(
                "delete of a triple no update inserted: {s} {p} {o}"
            )),
        }
    }

    /// Objects `o` with `(s, p, o)` in the world.
    fn objects(&self, s: Id, p: Id, out: &mut Vec<Id>) {
        out.extend(prefix2(&self.spo, s, p).iter().map(|t| t[2]));
        out.extend(
            self.extra
                .iter()
                .filter(|t| t[0] == s && t[1] == p)
                .map(|t| t[2]),
        );
    }

    /// Subjects `s` with `(s, p, o)` in the world.
    fn subjects(&self, p: Id, o: Id, out: &mut Vec<Id>) {
        out.extend(prefix2(&self.ops, o, p).iter().map(|t| t[2]));
        out.extend(
            self.extra
                .iter()
                .filter(|t| t[1] == p && t[2] == o)
                .map(|t| t[0]),
        );
    }

    /// Every `(s, o)` pair of predicate `p`.
    fn pairs(&self, p: Id, out: &mut Vec<(Id, Id)>) {
        let lo = self.pso.partition_point(|t| t[0] < p);
        let hi = self.pso.partition_point(|t| t[0] <= p);
        out.extend(self.pso[lo..hi].iter().map(|t| (t[1], t[2])));
        out.extend(
            self.extra
                .iter()
                .filter(|t| t[1] == p)
                .map(|t| (t[0], t[2])),
        );
    }

    /// Number of base triples of predicate `p` (a cheap size estimate).
    fn pred_size(&self, p: Id) -> usize {
        self.pso.partition_point(|t| t[0] <= p) - self.pso.partition_point(|t| t[0] < p)
    }

    fn nodes(&self) -> impl Iterator<Item = Id> + '_ {
        (0..self.names.len() as Id).filter(|&i| self.is_node[i as usize])
    }
}

/// Base triples whose first two positions are `(a, b)`.
fn prefix2(v: &[Triple], a: Id, b: Id) -> &[Triple] {
    let lo = v.partition_point(|t| (t[0], t[1]) < (a, b));
    let hi = v.partition_point(|t| (t[0], t[1]) <= (a, b));
    &v[lo..hi]
}

/// Where a search finds its triples: the whole world, or the few edges
/// of one provenance graph under check.
trait Source {
    fn objects(&self, s: Id, p: Id, out: &mut Vec<Id>);
    fn subjects(&self, p: Id, o: Id, out: &mut Vec<Id>);
    fn pairs(&self, p: Id, out: &mut Vec<(Id, Id)>);
    fn has(&self, t: Triple) -> bool;
    /// Every node, for variables no edge touches.
    fn nodes(&self) -> Vec<Id>;
}

impl Source for World {
    fn objects(&self, s: Id, p: Id, out: &mut Vec<Id>) {
        World::objects(self, s, p, out);
    }
    fn subjects(&self, p: Id, o: Id, out: &mut Vec<Id>) {
        World::subjects(self, p, o, out);
    }
    fn pairs(&self, p: Id, out: &mut Vec<(Id, Id)>) {
        World::pairs(self, p, out);
    }
    fn has(&self, t: Triple) -> bool {
        World::has(self, t)
    }
    fn nodes(&self) -> Vec<Id> {
        World::nodes(self).collect()
    }
}

/// The edges of one provenance graph, within a world.
struct Restricted<'a> {
    world: &'a World,
    edges: &'a [Triple],
}

impl Source for Restricted<'_> {
    fn objects(&self, s: Id, p: Id, out: &mut Vec<Id>) {
        out.extend(
            self.edges
                .iter()
                .filter(|t| t[0] == s && t[1] == p)
                .map(|t| t[2]),
        );
    }
    fn subjects(&self, p: Id, o: Id, out: &mut Vec<Id>) {
        out.extend(
            self.edges
                .iter()
                .filter(|t| t[1] == p && t[2] == o)
                .map(|t| t[0]),
        );
    }
    fn pairs(&self, p: Id, out: &mut Vec<(Id, Id)>) {
        out.extend(
            self.edges
                .iter()
                .filter(|t| t[1] == p)
                .map(|t| (t[0], t[2])),
        );
    }
    fn has(&self, t: Triple) -> bool {
        self.edges.contains(&t)
    }
    fn nodes(&self) -> Vec<Id> {
        self.world.nodes().collect()
    }
}

/// Decodes the `%xx` escapes of the triple text and SPARQL dialects.
fn unescape(s: &str) -> Result<String, String> {
    if !s.contains('%') {
        return Ok(s.to_string());
    }
    let b = s.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| format!("bad escape in {s:?}"))?;
            out.push(hex);
            i += 3;
        } else {
            out.push(b[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape decodes to invalid UTF-8 in {s:?}"))
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// A query term: a variable or a constant node value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// `?name`.
    Var(String),
    /// `:value`.
    Const(String),
}

/// One `SELECT` block: terms are the pattern's nodes, edges and
/// disequalities index into them.
#[derive(Debug, Clone)]
pub struct Branch {
    terms: Vec<Term>,
    proj: usize,
    edges: Vec<(usize, String, usize)>,
    diseqs: Vec<(usize, usize)>,
}

/// A union of branches; its answers are the union of theirs.
#[derive(Debug, Clone)]
pub struct Query {
    branches: Vec<Branch>,
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Var(String),
    Const(String),
    Punct(&'static str),
}

fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let ident_end = |mut j: usize| {
        while j < b.len()
            && (b[j].is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'-' || b[j] == b'%')
        {
            j += 1;
        }
        j
    };
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let punct = match c {
            b'{' => Some("{"),
            b'}' => Some("}"),
            b'(' => Some("("),
            b')' => Some(")"),
            b'.' => Some("."),
            b'!' if b.get(i + 1) == Some(&b'=') => Some("!="),
            _ => None,
        };
        if let Some(p) = punct {
            i += p.len();
            out.push(Tok::Punct(p));
            continue;
        }
        if c == b'?' || c == b':' {
            let end = ident_end(i + 1);
            if end == i + 1 {
                return Err(format!("empty name at byte {i}"));
            }
            let name = unescape(&src[i + 1..end])?;
            out.push(if c == b'?' {
                Tok::Var(name)
            } else {
                Tok::Const(name)
            });
            i = end;
            continue;
        }
        if c.is_ascii_alphabetic() {
            let end = ident_end(i);
            out.push(Tok::Word(src[i..end].to_ascii_uppercase()));
            i = end;
            continue;
        }
        return Err(format!("unexpected byte {:?} at {i}", c as char));
    }
    Ok(out)
}

impl Query {
    /// Parses the dialect the server reads and writes:
    /// `SELECT ?x WHERE { s :p o . FILTER(a != b) . } UNION SELECT ...`.
    pub fn parse(src: &str) -> Result<Query, String> {
        let toks = lex(src)?;
        let mut pos = 0;
        let mut branches = Vec::new();
        loop {
            branches.push(parse_select(&toks, &mut pos)?);
            match toks.get(pos) {
                None => break,
                Some(Tok::Word(w)) if w == "UNION" => pos += 1,
                Some(t) => return Err(format!("expected UNION or end, found {t:?}")),
            }
        }
        Ok(Query { branches })
    }

    /// The query's answers on `w`: every value of a projected variable
    /// under some match of its branch.
    pub fn answers(&self, w: &World) -> BTreeSet<Id> {
        let mut out = BTreeSet::new();
        for b in &self.branches {
            b.answers(w, &mut out);
        }
        out
    }

    /// Up to `limit` distinct provenance images (edge sets of matches)
    /// that yield `result`, in the checker's own search order.
    pub fn images(&self, w: &World, result: Id, limit: usize) -> Vec<Vec<Triple>> {
        let mut found: BTreeSet<Vec<Triple>> = BTreeSet::new();
        for b in &self.branches {
            if found.len() >= limit {
                break;
            }
            b.images(w, result, limit, &mut found);
        }
        found.into_iter().take(limit).collect()
    }

    /// Whether `edges` is exactly the image of one match of the query
    /// that yields `result`, with every edge in the world.
    pub fn is_image(&self, w: &World, result: Id, edges: &[Triple]) -> bool {
        if !edges.iter().all(|&t| w.has(t)) {
            return false;
        }
        let mut want: Vec<Triple> = edges.to_vec();
        want.sort_unstable();
        want.dedup();
        self.branches.iter().any(|b| b.is_image(w, result, &want))
    }
}

fn parse_term(tok: Option<&Tok>) -> Result<Term, String> {
    match tok {
        Some(Tok::Var(v)) => Ok(Term::Var(v.clone())),
        Some(Tok::Const(c)) => Ok(Term::Const(c.clone())),
        t => Err(format!("expected a term, found {t:?}")),
    }
}

fn expect(toks: &[Tok], pos: &mut usize, want: &Tok) -> Result<(), String> {
    if toks.get(*pos) == Some(want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {want:?}, found {:?}", toks.get(*pos)))
    }
}

fn parse_select(toks: &[Tok], pos: &mut usize) -> Result<Branch, String> {
    expect(toks, pos, &Tok::Word("SELECT".into()))?;
    let proj = match toks.get(*pos) {
        Some(Tok::Var(v)) => Term::Var(v.clone()),
        t => return Err(format!("expected the projected variable, found {t:?}")),
    };
    *pos += 1;
    expect(toks, pos, &Tok::Word("WHERE".into()))?;
    expect(toks, pos, &Tok::Punct("{"))?;
    let mut b = Branch {
        terms: Vec::new(),
        proj: 0,
        edges: Vec::new(),
        diseqs: Vec::new(),
    };
    b.proj = b.term(proj);
    loop {
        match toks.get(*pos) {
            Some(Tok::Punct("}")) => {
                *pos += 1;
                return Ok(b);
            }
            Some(Tok::Punct(".")) => *pos += 1,
            Some(Tok::Word(w)) if w == "FILTER" => {
                *pos += 1;
                expect(toks, pos, &Tok::Punct("("))?;
                let l = parse_term(toks.get(*pos))?;
                *pos += 1;
                expect(toks, pos, &Tok::Punct("!="))?;
                let r = parse_term(toks.get(*pos))?;
                *pos += 1;
                expect(toks, pos, &Tok::Punct(")"))?;
                let (l, r) = (b.term(l), b.term(r));
                b.diseqs.push((l, r));
            }
            Some(Tok::Word(w)) => return Err(format!("unsupported keyword {w}")),
            t => {
                let s = parse_term(t)?;
                *pos += 1;
                let s = b.term(s);
                // A bare term (a node with no edge) ends at `.` or `}`.
                if let Some(Tok::Const(p)) = toks.get(*pos) {
                    let p = p.clone();
                    *pos += 1;
                    let o = parse_term(toks.get(*pos))?;
                    *pos += 1;
                    let o = b.term(o);
                    b.edges.push((s, p, o));
                }
            }
        }
    }
}

/// The state of one search: a binding per term.
type Binding = Vec<Option<Id>>;

/// Matches an anchored query may enumerate before the checker falls
/// back to one existence search per candidate result.
const ENUMERATION_BUDGET: usize = 200_000;

impl Branch {
    fn term(&mut self, t: Term) -> usize {
        if let Some(i) = self.terms.iter().position(|x| *x == t) {
            return i;
        }
        self.terms.push(t);
        self.terms.len() - 1
    }

    /// Binds the constants; `None` when one names no node of `w`.
    fn initial(&self, w: &World) -> Option<Binding> {
        self.terms
            .iter()
            .map(|t| match t {
                Term::Var(_) => Some(None),
                Term::Const(c) => w.id(c).filter(|&id| w.is_node[id as usize]).map(Some),
            })
            .collect()
    }

    fn diseqs_hold(&self, bind: &Binding) -> bool {
        self.diseqs.iter().all(|&(a, b)| match (bind[a], bind[b]) {
            (Some(x), Some(y)) => x != y,
            _ => true,
        })
    }

    /// Candidate images of the projected term, from its most selective
    /// incident edge, or every node when it has none.
    fn candidates(&self, w: &World, bind: &Binding) -> Vec<Id> {
        let mut best: Option<Vec<Id>> = None;
        for (s, p, o) in &self.edges {
            let (other, proj_is_subject) = if *s == self.proj {
                (*o, true)
            } else if *o == self.proj {
                (*s, false)
            } else {
                continue;
            };
            let Some(p) = w.id(p) else {
                return Vec::new();
            };
            let mut c = Vec::new();
            match (bind[other], proj_is_subject) {
                (Some(x), true) if other != self.proj => w.subjects(p, x, &mut c),
                (Some(x), false) if other != self.proj => w.objects(x, p, &mut c),
                _ => {
                    if best.as_ref().is_some_and(|b| b.len() <= w.pred_size(p)) {
                        continue;
                    }
                    let mut pairs = Vec::new();
                    w.pairs(p, &mut pairs);
                    c.extend(
                        pairs
                            .iter()
                            .map(|&(s, o)| if proj_is_subject { s } else { o }),
                    );
                }
            }
            if best.as_ref().is_none_or(|b| c.len() < b.len()) {
                best = Some(c);
            }
        }
        let mut c = best.unwrap_or_else(|| w.nodes().collect());
        c.sort_unstable();
        c.dedup();
        c
    }

    fn answers(&self, w: &World, out: &mut BTreeSet<Id>) {
        let Some(bind) = self.initial(w) else {
            return;
        };
        let mut done = vec![false; self.edges.len()];
        if self.terms.iter().any(|t| matches!(t, Term::Const(_))) {
            // Anchored: enumerate the matches reachable from the
            // constants, unless there are too many of them.
            let (mut seen, mut budget) = (BTreeSet::new(), ENUMERATION_BUDGET);
            let proj = self.proj;
            let complete = self.search(
                w,
                w,
                &mut bind.clone(),
                &mut done,
                &mut Vec::new(),
                &mut |b: &Binding, _: &[Triple]| {
                    seen.insert(b[proj].expect("a complete match binds every term"));
                    budget -= 1;
                    budget > 0
                },
            );
            if complete {
                out.extend(seen);
                return;
            }
        }
        for c in self.candidates(w, &bind) {
            if out.contains(&c) {
                continue;
            }
            let mut b = bind.clone();
            b[self.proj] = Some(c);
            let mut found = false;
            if self.diseqs_hold(&b) {
                self.search(
                    w,
                    w,
                    &mut b,
                    &mut done,
                    &mut Vec::new(),
                    &mut |_: &Binding, _: &[Triple]| {
                        found = true;
                        false
                    },
                );
            }
            if found {
                out.insert(c);
            }
        }
    }

    fn images(&self, w: &World, result: Id, limit: usize, found: &mut BTreeSet<Vec<Triple>>) {
        let Some(mut b) = self.initial(w) else {
            return;
        };
        if b[self.proj].is_some_and(|x| x != result) {
            return;
        }
        b[self.proj] = Some(result);
        if !self.diseqs_hold(&b) {
            return;
        }
        let mut done = vec![false; self.edges.len()];
        self.search(
            w,
            w,
            &mut b,
            &mut done,
            &mut Vec::new(),
            &mut |_: &Binding, img: &[Triple]| {
                let mut img = img.to_vec();
                img.sort_unstable();
                img.dedup();
                found.insert(img);
                found.len() < limit
            },
        );
    }

    fn is_image(&self, w: &World, result: Id, want: &[Triple]) -> bool {
        // A match whose image is `want` maps every query edge into it.
        let Some(mut b) = self.initial(w) else {
            return false;
        };
        if b[self.proj].is_some_and(|x| x != result) {
            return false;
        }
        b[self.proj] = Some(result);
        if !self.diseqs_hold(&b) {
            return false;
        }
        let sub = Restricted {
            world: w,
            edges: want,
        };
        let mut done = vec![false; self.edges.len()];
        let mut ok = false;
        self.search(
            w,
            &sub,
            &mut b,
            &mut done,
            &mut Vec::new(),
            &mut |_: &Binding, img: &[Triple]| {
                let mut img = img.to_vec();
                img.sort_unstable();
                img.dedup();
                ok = img == want;
                !ok
            },
        );
        ok
    }

    /// Depth-first search for matches extending `bind`, with labels
    /// resolved in `w` and triples taken from `src`. `emit` gets the
    /// image of each complete match and returns whether to go on; the
    /// return value says the same to the caller.
    fn search(
        &self,
        w: &World,
        src: &dyn Source,
        bind: &mut Binding,
        done: &mut Vec<bool>,
        image: &mut Vec<Triple>,
        emit: &mut dyn FnMut(&Binding, &[Triple]) -> bool,
    ) -> bool {
        // The next edge: both ends bound first, then one end bound.
        let mut next: Option<(usize, u8)> = None;
        for (i, (s, _, o)) in self.edges.iter().enumerate() {
            if done[i] {
                continue;
            }
            let rank = u8::from(bind[*s].is_some()) + u8::from(bind[*o].is_some());
            if next.is_none_or(|(_, r)| rank > r) {
                next = Some((i, rank));
            }
        }
        let Some((i, _)) = next else {
            return self.bind_free(src, bind, 0, image, emit);
        };
        let (s, p, o) = &self.edges[i];
        let (s, o) = (*s, *o);
        let Some(p) = w.id(p) else {
            return true;
        };
        let mut pairs: Vec<(Id, Id)> = Vec::new();
        match (bind[s], bind[o]) {
            (Some(x), Some(y)) => {
                if src.has([x, p, y]) {
                    pairs.push((x, y));
                }
            }
            (Some(x), None) => {
                let mut objs = Vec::new();
                src.objects(x, p, &mut objs);
                pairs.extend(objs.into_iter().map(|y| (x, y)));
            }
            (None, Some(y)) => {
                let mut subs = Vec::new();
                src.subjects(p, y, &mut subs);
                pairs.extend(subs.into_iter().map(|x| (x, y)));
            }
            (None, None) => src.pairs(p, &mut pairs),
        }
        done[i] = true;
        let mut go_on = true;
        let (old_s, old_o) = (bind[s], bind[o]);
        for (x, y) in pairs {
            // A self-loop pattern `?v :p ?v` needs a self-loop triple.
            if s == o && x != y {
                continue;
            }
            bind[s] = Some(x);
            bind[o] = Some(y);
            if self.diseqs_hold(bind) {
                image.push([x, p, y]);
                go_on = self.search(w, src, bind, done, image, emit);
                image.pop();
            }
            bind[s] = old_s;
            bind[o] = old_o;
            if !go_on {
                break;
            }
        }
        done[i] = false;
        go_on
    }

    /// Binds the terms no edge touches (isolated variables) to any node,
    /// in a nested loop, then emits.
    fn bind_free(
        &self,
        src: &dyn Source,
        bind: &mut Binding,
        from: usize,
        image: &[Triple],
        emit: &mut dyn FnMut(&Binding, &[Triple]) -> bool,
    ) -> bool {
        let Some(t) = (from..bind.len()).find(|&t| bind[t].is_none()) else {
            return emit(bind, image);
        };
        for n in src.nodes() {
            bind[t] = Some(n);
            let go_on = !self.diseqs_hold(bind) || self.bind_free(src, bind, t + 1, image, emit);
            if !go_on {
                bind[t] = None;
                return false;
            }
        }
        bind[t] = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example (Figure 1): the `wb` world.
    const ERDOS: &str = "\
paper1 wb Alice\npaper1 wb Bob\npaper2 wb Bob\npaper2 wb Carol\npaper3 wb Carol\n\
paper3 wb Erdos\npaper4 wb Dave\npaper4 wb Erdos\npaper5 wb Felix\npaper5 wb Gina\n\
paper6 wb Gina\npaper6 wb Hank\npaper7 wb Hank\npaper7 wb Erdos\npaper8 wb William\n\
paper8 wb Xena\npaper9 wb Xena\npaper9 wb Erdos\npaper10 wb Harry\npaper10 wb Erdos\n\
paper11 wb Solo\n@type Solo Author\n";

    fn names(w: &World, ids: &BTreeSet<Id>) -> Vec<String> {
        let mut v: Vec<String> = ids.iter().map(|&i| w.name(i).to_string()).collect();
        v.sort();
        v
    }

    fn answers(w: &World, q: &str) -> Vec<String> {
        names(w, &Query::parse(q).expect("query parses").answers(w))
    }

    #[test]
    fn erdos_number_one_and_two() {
        let w = World::from_text(ERDOS).unwrap();
        let one = "SELECT ?a WHERE { ?p :wb ?a . ?p :wb :Erdos . FILTER(?a != :Erdos) . }";
        assert_eq!(answers(&w, one), ["Carol", "Dave", "Hank", "Harry", "Xena"]);
        let two = "SELECT ?a WHERE { ?p :wb ?a . ?p :wb ?b . ?q :wb ?b . ?q :wb :Erdos . \
                   FILTER(?a != ?b) . FILTER(?b != :Erdos) . FILTER(?a != :Erdos) . }";
        assert_eq!(answers(&w, two), ["Bob", "Gina", "William"]);
    }

    #[test]
    fn matches_are_homomorphisms_not_injections() {
        let w = World::from_text(ERDOS).unwrap();
        // Without a filter, ?a may map onto Erdos himself.
        let q = "SELECT ?a WHERE { ?p :wb ?a . ?p :wb :Erdos . }";
        assert!(answers(&w, q).contains(&"Erdos".to_string()));
    }

    #[test]
    fn unions_collect_every_branch() {
        let w = World::from_text(ERDOS).unwrap();
        let q = "SELECT ?x WHERE { :paper11 :wb ?x . }\nUNION\nSELECT ?y WHERE {\n  :paper4 :wb ?y .\n}";
        assert_eq!(answers(&w, q), ["Dave", "Erdos", "Solo"]);
    }

    #[test]
    fn unknown_constants_and_predicates_give_no_answers() {
        let w = World::from_text(ERDOS).unwrap();
        assert!(answers(&w, "SELECT ?a WHERE { ?p :wb ?a . ?p :wb :Nobody . }").is_empty());
        assert!(answers(&w, "SELECT ?a WHERE { ?p :cites ?a . }").is_empty());
    }

    #[test]
    fn isolated_variables_range_over_every_node() {
        let w = World::from_text(ERDOS).unwrap();
        let all = answers(&w, "SELECT ?x WHERE { ?x . }");
        // 11 papers plus 12 authors, Solo's type line adds no new node.
        assert_eq!(all.len(), 23);
    }

    #[test]
    fn escaped_labels_round_trip() {
        let w = World::from_text("a%20b wb c\n").unwrap();
        assert_eq!(answers(&w, "SELECT ?x WHERE { ?x :wb :c . }"), ["a b"]);
        assert_eq!(answers(&w, "SELECT ?x WHERE { :a%20b :wb ?x . }"), ["c"]);
    }

    #[test]
    fn images_and_image_checks_agree() {
        let w = World::from_text(ERDOS).unwrap();
        let q =
            Query::parse("SELECT ?a WHERE { ?p :wb ?a . ?p :wb :Erdos . FILTER(?a != :Erdos) . }")
                .unwrap();
        let dave = w.id("Dave").unwrap();
        let imgs = q.images(&w, dave, 8);
        assert_eq!(imgs.len(), 1);
        assert!(q.is_image(&w, dave, &imgs[0]));
        // A strict subset, a superset and a wrong result all fail.
        assert!(!q.is_image(&w, dave, &imgs[0][..1]));
        let mut more = imgs[0].clone();
        more.push([
            w.id("paper1").unwrap(),
            w.id("wb").unwrap(),
            w.id("Alice").unwrap(),
        ]);
        assert!(!q.is_image(&w, dave, &more));
        assert!(!q.is_image(&w, w.id("Carol").unwrap(), &imgs[0]));
    }

    #[test]
    fn updates_are_seen_and_undone() {
        let mut w = World::from_text(ERDOS).unwrap();
        let q = "SELECT ?a WHERE { ?p :wb ?a . ?p :wb :Solo . FILTER(?a != :Solo) . }";
        assert!(answers(&w, q).is_empty());
        w.insert("paper11", "wb", "Zoe").unwrap();
        assert_eq!(answers(&w, q), ["Zoe"]);
        assert!(w.insert("paper11", "wb", "Zoe").is_err());
        w.delete("paper11", "wb", "Zoe").unwrap();
        assert!(answers(&w, q).is_empty());
        assert!(
            w.delete("paper1", "wb", "Alice").is_err(),
            "base triples stay"
        );
    }

    #[test]
    fn malformed_queries_are_errors() {
        for q in [
            "SELECT ?a WHERE { ?p :wb ?a ",
            "SELECT :a WHERE { }",
            "SELECT ?a WHERE { OPTIONAL { ?a :wb ?b } }",
            "SELECT ?a WHERE { } UNION",
        ] {
            assert!(Query::parse(q).is_err(), "{q}");
        }
    }
}
