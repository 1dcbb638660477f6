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
let[@inline] page t addr =
  let page = addr lsr page_bits in
  if page >= Array.length t.pages then empty_page
  else Array.unsafe_get t.pages page

let[@inline] writable_page t addr =
  let page = addr lsr page_bits in
  if page >= Array.length t.pages then grow t page;
  let p = Array.unsafe_get t.pages page in
  if p == empty_page then begin
    let fresh = Array.make page_words 0 in
    Array.unsafe_set t.pages page fresh;
    fresh
  end
  else p

let[@inline] get t addr =
  let p = page t addr in
  if p == empty_page then 0 else Array.unsafe_get p (addr land page_mask)

let[@inline] set t addr v =
  Array.unsafe_set (writable_page t addr) (addr land page_mask) v

(* A run looks its page up once when it lies in one page, else each
   word alone.  The page is indexed with checked accesses, so a wrong
   fit test raises rather than reads or writes past it. *)
let[@inline] max_run t addr (row : int array) n =
  let off = addr land page_mask in
  let p = if off + n <= page_words then page t addr else empty_page in
  if p != empty_page then
    for i = 0 to n - 1 do
      if p.(off + i) > row.(i) then row.(i) <- p.(off + i)
    done
  else
    for i = 0 to n - 1 do
      let v = get t (addr + i) in
      if v > row.(i) then row.(i) <- v
    done

let[@inline] set_run t addr (row : int array) n =
  let off = addr land page_mask in
  if off + n <= page_words then begin
    let p = writable_page t addr in
    for i = 0 to n - 1 do
      p.(off + i) <- row.(i)
    done
  end
  else
    for i = 0 to n - 1 do
      set t (addr + i) row.(i)
    done
