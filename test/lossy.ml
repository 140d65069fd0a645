(* Bernoulli cell loss on one link through the fault layer, for tests
   written against a plain [Rng.create seed] loss stream. [Fault.create]
   seeds its generator with [spec.seed lxor fnv1a site]; pre-mixing the
   seed with the same FNV-1a hash makes the injector draw exactly the
   stream [Rng.create seed] would, so each test keeps the losses it was
   written against. *)

open Engine

let site = "loss"

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int !h

let set link ~seed ~p =
  Atm.Link.set_fault link
    (Fault.create ~site
       { Fault.none with seed = seed lxor fnv1a site; loss = p })
