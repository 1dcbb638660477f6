let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

type t = {
  mutable pages : int array array;
  words : int;
}

let empty_page : int array = [||]

let create words =
  let n_pages = max 1 ((max words 1 + page_words - 1) lsr page_bits) in
  { pages = Array.make n_pages empty_page; words }

let words t = t.words

let rec grow t page =
  let n = Array.length t.pages in
  if page >= n then begin
    let bigger = Array.make (2 * n) empty_page in
    Array.blit t.pages 0 bigger 0 n;
    t.pages <- bigger;
    grow t page
  end

(* The unsafe accesses are behind proven bounds: [page] is checked
   against the page directory right here, and [addr land page_mask]
   is below [page_words] — the length of every non-empty page — by
   construction. *)
let[@inline] get t addr =
  let page = addr lsr page_bits in
  if page >= Array.length t.pages then 0
  else
    let p = Array.unsafe_get t.pages page in
    if p == empty_page then 0 else Array.unsafe_get p (addr land page_mask)

let[@inline] set t addr v =
  let page = addr lsr page_bits in
  if page >= Array.length t.pages then grow t page;
  let p = Array.unsafe_get t.pages page in
  let p =
    if p == empty_page then begin
      let fresh = Array.make page_words 0 in
      Array.unsafe_set t.pages page fresh;
      fresh
    end
    else p
  in
  Array.unsafe_set p (addr land page_mask) v
