module Summary = struct
  type t = {
    mutable samples : float list;
    mutable n : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable mn : float;
    mutable mx : float;
    mutable sorted : float array option; (* cache, invalidated by add *)
  }

  let create () =
    {
      samples = [];
      n = 0;
      sum = 0.;
      sumsq = 0.;
      mn = infinity;
      mx = neg_infinity;
      sorted = None;
    }

  let add t x =
    t.samples <- x :: t.samples;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    t.sumsq <- t.sumsq +. (x *. x);
    if x < t.mn then t.mn <- x;
    if x > t.mx then t.mx <- x;
    t.sorted <- None

  let count t = t.n
  let total t = t.sum
  let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n
  let min t = t.mn
  let max t = t.mx

  let stddev t =
    if t.n < 2 then 0.
    else
      let n = float_of_int t.n in
      let m = t.sum /. n in
      Float.sqrt (Float.max 0. ((t.sumsq /. n) -. (m *. m)))

  let percentile t p =
    if t.n = 0 then invalid_arg "Summary.percentile: empty";
    let a =
      match t.sorted with
      | Some a -> a
      | None ->
          let a = Array.of_list t.samples in
          Array.sort Float.compare a;
          t.sorted <- Some a;
          a
    in
    let n = Array.length a in
    let p = Float.max 0. (Float.min 1. p) in
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
end

module Series = struct
  type t = { label : string; points : (float * float) list }

  let make label points = { label; points }

  let pp_row fmt (x, y) = Format.fprintf fmt "%12.1f  %12.3f" x y

  let pp fmt t =
    Format.fprintf fmt "# %s@\n" t.label;
    List.iter (fun p -> Format.fprintf fmt "%a@\n" pp_row p) t.points

  let y_at t x =
    match t.points with
    | [] -> invalid_arg "Series.y_at: empty series"
    | (x0, y0) :: rest ->
        let _, y =
          List.fold_left
            (fun (bx, by) (px, py) ->
              if Float.abs (px -. x) < Float.abs (bx -. x) then (px, py)
              else (bx, by))
            (x0, y0) rest
        in
        y

  let max_y t = List.fold_left (fun acc (_, y) -> Float.max acc y) neg_infinity t.points
  let min_y t = List.fold_left (fun acc (_, y) -> Float.min acc y) infinity t.points
end
