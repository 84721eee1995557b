let page_words = 1024 (* 4 KiB pages *)
let cached_pages = 16

type t = {
  pages : (int, int array) Hashtbl.t;
  (* A direct-mapped page cache in front of the table, indexed by
     [page_idx land (cached_pages - 1)]: a kernel streams a few arrays at
     once, so lookups skip the table (and its [Some]) after first touch. *)
  pc_idx : int array; (* page index held by each slot, -1 = none *)
  pc_page : int array array;
}

let no_page : int array = [||]

let create () =
  {
    pages = Hashtbl.create 256;
    pc_idx = Array.make cached_pages (-1);
    pc_page = Array.make cached_pages no_page;
  }

let cache_page t page_idx page =
  let slot = page_idx land (cached_pages - 1) in
  t.pc_idx.(slot) <- page_idx;
  t.pc_page.(slot) <- page

let find_page t page_idx =
  let slot = page_idx land (cached_pages - 1) in
  if t.pc_idx.(slot) = page_idx then t.pc_page.(slot)
  else
    match Hashtbl.find_opt t.pages page_idx with
    | None -> no_page
    | Some page ->
        cache_page t page_idx page;
        page

let check_addr addr =
  if addr < 0 then invalid_arg "Store: negative address";
  if addr land 3 <> 0 then invalid_arg (Printf.sprintf "Store: misaligned address 0x%x" addr)

let read_word t addr =
  check_addr addr;
  let word_idx = addr lsr 2 in
  let page = find_page t (word_idx / page_words) in
  if page == no_page then 0 else page.(word_idx mod page_words)

let write_word t addr v =
  check_addr addr;
  let word_idx = addr lsr 2 in
  let page_idx = word_idx / page_words in
  let page =
    let page = find_page t page_idx in
    if page != no_page then page
    else begin
      let page = Array.make page_words 0 in
      Hashtbl.replace t.pages page_idx page;
      cache_page t page_idx page;
      page
    end
  in
  page.(word_idx mod page_words) <- v land 0xFFFFFFFF

let read_byte t addr =
  if addr < 0 then invalid_arg "Store: negative address";
  let w = read_word t (addr land lnot 3) in
  (w lsr (8 * (addr land 3))) land 0xFF

let write_byte t addr v =
  if addr < 0 then invalid_arg "Store: negative address";
  let word_addr = addr land lnot 3 in
  let shift = 8 * (addr land 3) in
  let w = read_word t word_addr in
  write_word t word_addr (w land lnot (0xFF lsl shift) lor ((v land 0xFF) lsl shift))

let read_half t addr =
  if addr < 0 then invalid_arg "Store: negative address";
  if addr land 1 <> 0 then invalid_arg (Printf.sprintf "Store: misaligned halfword 0x%x" addr);
  let w = read_word t (addr land lnot 3) in
  (w lsr (8 * (addr land 3))) land 0xFFFF

let write_half t addr v =
  if addr < 0 then invalid_arg "Store: negative address";
  if addr land 1 <> 0 then invalid_arg (Printf.sprintf "Store: misaligned halfword 0x%x" addr);
  let word_addr = addr land lnot 3 in
  let shift = 8 * (addr land 3) in
  let w = read_word t word_addr in
  write_word t word_addr (w land lnot (0xFFFF lsl shift) lor ((v land 0xFFFF) lsl shift))

let read_float t addr = Int32.float_of_bits (Int32.of_int (read_word t addr))

let write_float t addr v = write_word t addr (Int32.to_int (Int32.bits_of_float v) land 0xFFFFFFFF)

let copy t =
  let t' = create () in
  Hashtbl.iter (fun k page -> Hashtbl.replace t'.pages k (Array.copy page)) t.pages;
  t'

let fold_nonzero t ~init ~f =
  let pages = Hashtbl.fold (fun k _ acc -> k :: acc) t.pages [] in
  let pages = List.sort compare pages in
  List.fold_left
    (fun acc page_idx ->
      let page = Hashtbl.find t.pages page_idx in
      let acc = ref acc in
      Array.iteri
        (fun i v ->
          if v <> 0 then acc := f !acc (4 * ((page_idx * page_words) + i)) v)
        page;
      !acc)
    init pages

let equal a b =
  let dump t = fold_nonzero t ~init:[] ~f:(fun acc addr v -> (addr, v) :: acc) in
  dump a = dump b
