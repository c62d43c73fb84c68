#include <math.h>

long k = 0;
int stuck = 0;
unsigned long long vis = 0, emit = 0;
int l0 = 0;
int l1 = 0;
double x = 20.0;
double x_u = 20.0;
double C1_x = 20.0;
double c = 0.0;
double c_u = 0.0;
double C1_c = 0.0;

static double snap(double x, double p, double b, int h) {
    return h || !((p <= b && b <= x) || (x <= b && b <= p)) ? x : b;
}

void tankburnerR(void) {
    x = x_u;
    c = c_u;
    int e0 = (l0 == 0 ? (vis & 3) == 0 && x == 20 : l0 == 2 ? (vis & 3) == 0 && x == 100 : (vis & 3) == 0 && x >= 20 && x <= 100), e1 = (l1 == 0 ? c >= 0 && c <= 25 : c >= 0 && c <= 15);
    if (e0 && e1) {
        k = k + 1;
        x_u = (l0 == 1 ? 150.0 + C1_x * exp(-0.00075 * k) : l0 == 3 ? C1_x * exp(-0.00075 * k) : x_u);
        c_u = C1_c + 0.01 * k;
        return;
    }
    int l0_n = l0;
    switch (l0) {
    case 0: {  /* t1 */
        double x_prev = k >= 1 ? C1_x : x;
        double x_s0 = snap(x, x_prev, 20, x == 20);
        if ((vis & 3) == 1 && x_s0 == 20) {
            x = x_s0;
            C1_x = x - 150;
            l0_n = 1;
        }
        else {
            if (!e0) goto stuck;
            C1_x = x;
        }
        break;
    }
    case 1: {  /* t2 */
        double x_prev = k >= 1 ? 150.0 + C1_x * exp(-0.00075 * (k - 1)) : x;
        double x_s0 = snap(x, x_prev, 100, x == 100);
        if (x_s0 == 100) {
            x = x_s0;
            C1_x = x;
            l0_n = 2;
        }
        else if ((vis & 3) == 2) {
            C1_x = x;
            l0_n = 3;
        }
        else {
            if (!e0) goto stuck;
            C1_x = x - 150;
        }
        break;
    }
    case 2: {  /* t3 */
        if ((vis & 3) == 2) {
            C1_x = x;
            l0_n = 3;
        }
        else {
            if (!e0) goto stuck;
            C1_x = x;
        }
        break;
    }
    case 3: {  /* t4 */
        double x_prev = k >= 1 ? C1_x * exp(-0.00075 * (k - 1)) : x;
        double x_s0 = snap(x, x_prev, 20, x == 20);
        if ((vis & 3) == 1) {
            C1_x = x - 150;
            l0_n = 1;
        }
        else if (x_s0 == 20) {
            x = x_s0;
            C1_x = x;
            l0_n = 0;
        }
        else {
            if (!e0) goto stuck;
            C1_x = x;
        }
        break;
    }
    }
    int l1_n = l1;
    switch (l1) {
    case 0: {  /* b1 */
        double c_prev = k >= 1 ? C1_c + 0.01 * (k - 1) : c;
        double c_s0 = snap(c, c_prev, 25, c == 25);
        if (c_s0 == 25) {
            c = 0;
            C1_c = c;
            l1_n = 1;
            emit |= 1;
        }
        else {
            if (!e1) goto stuck;
            C1_c = c;
        }
        break;
    }
    case 1: {  /* b2 */
        double c_prev = k >= 1 ? C1_c + 0.01 * (k - 1) : c;
        double c_s0 = snap(c, c_prev, 15, c == 15);
        if (c_s0 == 15) {
            c = 0;
            C1_c = c;
            l1_n = 0;
            emit |= 2;
        }
        else {
            if (!e1) goto stuck;
            C1_c = c;
        }
        break;
    }
    }
    x_u = x;
    c_u = c;
    k = 0;
    l0 = l0_n;
    l1 = l1_n;
    return;
stuck:
    stuck = 1;
}
