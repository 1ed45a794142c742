type t = Statespace.t

let of_statespace ss = ss

let count = Statespace.size

let num_nodes = Statespace.num_nodes

let index t tuple =
  if Array.length tuple <> Statespace.levels t then
    invalid_arg "Mdd.index: tuple length mismatch";
  Statespace.index t tuple

let iter t f = Statespace.iter f t
