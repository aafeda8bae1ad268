let count () = 0
let probe x = x
