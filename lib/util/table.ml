(* Plain-text table rendering for the benchmark harness: the harness
   prints the same rows/series as the paper's figures, and aligned
   columns keep that output readable in a terminal or a diff. *)

type align = Left | Right

let is_numeric s =
  s <> ""
  && String.for_all (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = '%' || c = 'x') s

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else begin
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  end

let render ~header rows =
  let buf = Buffer.create 256 in
  let all = header :: rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let widths = Array.make ncols 0 in
  List.iter
    (fun row -> List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row)
    all;
  (* Right-align a column iff every body cell in it looks numeric. *)
  let aligns =
    Array.init ncols (fun i ->
        let numeric =
          rows <> []
          && List.for_all
               (fun row -> match List.nth_opt row i with Some c -> is_numeric c | None -> true)
               rows
        in
        if numeric then Right else Left)
  in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad aligns.(i) widths.(i) cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  Buffer.add_string buf (String.make (Array.fold_left ( + ) (2 * (ncols - 1)) widths) '-');
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)
